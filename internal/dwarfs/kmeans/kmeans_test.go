package kmeans

import (
	"strings"
	"testing"

	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/opencl"
)

func newEnv(t *testing.T) (*opencl.Context, *opencl.CommandQueue) {
	t.Helper()
	dev, err := opencl.LookupDevice("i7-6700k")
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := opencl.NewContext(dev)
	if err != nil {
		t.Fatal(err)
	}
	q, err := opencl.NewQueue(ctx, dev)
	if err != nil {
		t.Fatal(err)
	}
	return ctx, q
}

func TestMetadata(t *testing.T) {
	b := New()
	if b.Name() != "kmeans" || b.Dwarf() != "MapReduce" {
		t.Fatalf("metadata %s/%s", b.Name(), b.Dwarf())
	}
	if len(b.Sizes()) != 4 {
		t.Fatal("kmeans supports all four sizes")
	}
	if got := b.ArgString("tiny"); got != "-g -f 26 -p 256" {
		t.Fatalf("Table 3 args %q", got)
	}
	if got := b.ScaleParameter("large"); got != "131072" {
		t.Fatalf("Table 2 Φ %q", got)
	}
	if _, err := b.New("huge", 1); err == nil {
		t.Fatal("bad size accepted")
	}
}

func TestFootprintsMatchPaperSizing(t *testing.T) {
	// §4.4: tiny fits L1 (32 KiB), small L2 (256 KiB), medium L3 (8 MiB).
	b := New()
	limits := map[string]float64{"tiny": 32, "small": 256, "medium": 8192}
	floors := map[string]float64{"tiny": 16, "small": 128, "medium": 4096}
	for size, lim := range limits {
		inst, err := b.New(size, 1)
		if err != nil {
			t.Fatal(err)
		}
		kib := float64(inst.FootprintBytes()) / 1024
		if kib > lim {
			t.Errorf("%s: %.1f KiB exceeds %g KiB", size, kib, lim)
		}
		if kib < floors[size] {
			t.Errorf("%s: %.1f KiB suspiciously small (< %g KiB): not exercising the level", size, kib, floors[size])
		}
	}
}

func TestKernelMatchesSerialReference(t *testing.T) {
	ctx, q := newEnv(t)
	inst := NewInstance(512, 26, 5, 42)
	if err := inst.Setup(ctx, q); err != nil {
		t.Fatal(err)
	}
	if err := dwarfs.CheckFootprint(inst, ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10 && !inst.Converged(); i++ {
		if err := inst.Iterate(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := inst.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestConvergence(t *testing.T) {
	ctx, q := newEnv(t)
	inst := NewInstance(256, 8, 3, 7)
	if err := inst.Setup(ctx, q); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200 && !inst.Converged(); i++ {
		if err := inst.Iterate(q); err != nil {
			t.Fatal(err)
		}
	}
	if !inst.Converged() {
		t.Fatal("k-means did not converge in 200 iterations on 256 points")
	}
	if inst.Iterations() == 0 {
		t.Fatal("iteration count not tracked")
	}
}

func TestMembershipsPartitionPoints(t *testing.T) {
	ctx, q := newEnv(t)
	inst := NewInstance(640, 26, 5, 3)
	if err := inst.Setup(ctx, q); err != nil {
		t.Fatal(err)
	}
	if err := inst.Iterate(q); err != nil {
		t.Fatal(err)
	}
	for p, m := range inst.membership {
		if m < 0 || m >= 5 {
			t.Fatalf("point %d assigned to cluster %d", p, m)
		}
	}
}

func TestLifecycleErrors(t *testing.T) {
	inst := NewInstance(64, 4, 2, 1)
	_, q := newEnv(t)
	if err := inst.Iterate(q); err == nil || !strings.Contains(err.Error(), "Setup") {
		t.Fatal("Iterate before Setup accepted")
	}
	if err := inst.Verify(); err == nil {
		t.Fatal("Verify before Iterate accepted")
	}
}

func TestSimulateOnlySkipsHostWork(t *testing.T) {
	ctx, q := newEnv(t)
	inst := NewInstance(256, 8, 3, 9)
	if err := inst.Setup(ctx, q); err != nil {
		t.Fatal(err)
	}
	q.SetSimulateOnly(true)
	if err := inst.Iterate(q); err != nil {
		t.Fatal(err)
	}
	// Memberships untouched: kernel did not run.
	for _, m := range inst.membership {
		if m != -1 {
			t.Fatal("simulate-only iteration mutated results")
		}
	}
	kernels := 0
	for _, ev := range q.Events() {
		if ev.Kind == opencl.CommandKernel && ev.DurationNs() > 0 {
			kernels++
		}
	}
	if kernels == 0 {
		t.Fatal("simulate-only iteration produced no kernel events")
	}
}
