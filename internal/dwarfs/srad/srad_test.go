package srad

import (
	"math"
	"testing"

	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/dwarfs/dwarfstest"
	"opendwarfs/internal/opencl"
)

func newEnv(t *testing.T) (*opencl.Context, *opencl.CommandQueue) {
	t.Helper()
	dev, err := opencl.LookupDevice("r9-290x")
	if err != nil {
		t.Fatal(err)
	}
	ctx, _ := opencl.NewContext(dev)
	q, _ := opencl.NewQueue(ctx, dev)
	return ctx, q
}

func TestMetadata(t *testing.T) {
	b := New()
	if b.Name() != "srad" || b.Dwarf() != "Structured Grid" {
		t.Fatal("metadata")
	}
	if got := b.ArgString("tiny"); got != "80 16 0 127 0 127 0.5 1" {
		t.Fatalf("Table 3 args %q", got)
	}
	if got := b.ScaleParameter("large"); got != "2048,1024" {
		t.Fatalf("Φ %q", got)
	}
	if _, err := b.New("vast", 1); err == nil {
		t.Fatal("bad size accepted")
	}
	if _, err := NewInstance(1, 5, 1); err == nil {
		t.Fatal("degenerate grid accepted")
	}
}

func TestKernelMatchesSerial(t *testing.T) {
	for _, size := range []string{dwarfs.SizeTiny, dwarfs.SizeSmall} {
		ctx, q := newEnv(t)
		inst, err := New().New(size, 23)
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Setup(ctx, q); err != nil {
			t.Fatal(err)
		}
		if err := dwarfs.CheckFootprint(inst, ctx); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := inst.Iterate(q); err != nil {
				t.Fatal(err)
			}
		}
		if err := inst.Verify(); err != nil {
			t.Fatalf("%s: %v", size, err)
		}
	}
}

func TestDiffusionSmooths(t *testing.T) {
	// Anisotropic diffusion must reduce total variation in homogeneous
	// regions: iterate and compare neighbour differences.
	ctx, q := newEnv(t)
	inst, err := NewInstance(64, 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Setup(ctx, q); err != nil {
		t.Fatal(err)
	}
	tv := func(J []float32, rows, cols int) float64 {
		s := 0.0
		for i := 0; i < rows; i++ {
			for j := 0; j < cols-1; j++ {
				s += math.Abs(float64(J[i*cols+j+1] - J[i*cols+j]))
			}
		}
		return s
	}
	before := tv(inst.Grid(), 64, 64)
	for i := 0; i < 10; i++ {
		if err := inst.Iterate(q); err != nil {
			t.Fatal(err)
		}
	}
	after := tv(inst.Grid(), 64, 64)
	if after >= before {
		t.Fatalf("diffusion did not smooth: TV %f -> %f", before, after)
	}
}

func TestCoefficientRange(t *testing.T) {
	ctx, q := newEnv(t)
	inst, _ := NewInstance(32, 32, 9)
	if err := inst.Setup(ctx, q); err != nil {
		t.Fatal(err)
	}
	if err := inst.Iterate(q); err != nil {
		t.Fatal(err)
	}
	for idx, c := range inst.c {
		if c < 0 || c > 1 {
			t.Fatalf("diffusion coefficient %d = %f outside [0,1]", idx, c)
		}
	}
}

func TestROIClampedToGrid(t *testing.T) {
	// Table 3 requests ROI rows/cols 0–127 even for the 80×16 tiny grid.
	inst, err := NewInstance(80, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if inst.r2 != 79 || inst.c2 != 15 {
		t.Fatalf("ROI not clamped: r2=%d c2=%d", inst.r2, inst.c2)
	}
}

func TestFootprintsMatchPaperSizing(t *testing.T) {
	limits := map[string]float64{"tiny": 32, "small": 256, "medium": 8192}
	for size, lim := range limits {
		inst, _ := New().New(size, 1)
		if kib := float64(inst.FootprintBytes()) / 1024; kib > lim {
			t.Errorf("%s: %.1f KiB exceeds %g", size, kib, lim)
		}
	}
	large, _ := New().New("large", 1)
	if kib := float64(large.FootprintBytes()) / 1024; kib < 4*8192 {
		t.Errorf("large %.0f KiB below 4×L3", kib)
	}
}

func TestTwoKernelsPerIteration(t *testing.T) {
	ctx, q := newEnv(t)
	inst, _ := NewInstance(32, 32, 2)
	if err := inst.Setup(ctx, q); err != nil {
		t.Fatal(err)
	}
	q.DrainEvents()
	if err := inst.Iterate(q); err != nil {
		t.Fatal(err)
	}
	kernels := 0
	for _, ev := range q.Events() {
		if ev.Kind == opencl.CommandKernel {
			kernels++
		}
	}
	if kernels != 2 {
		t.Fatalf("%d kernels per iteration, want 2 (srad1 + srad2)", kernels)
	}
}

func TestLifecycleErrors(t *testing.T) {
	inst, _ := NewInstance(16, 16, 1)
	_, q := newEnv(t)
	if err := inst.Iterate(q); err == nil {
		t.Fatal("Iterate before Setup accepted")
	}
	if err := inst.Verify(); err == nil {
		t.Fatal("Verify before Iterate accepted")
	}
}

// TestGridGolden pins J after one executing Iterate at seed 1, after the
// characterisation pass harness.Prepare runs first. Verify checks the
// kernels against a replay of the same cell arithmetic; this digest holds
// both to the bits they had when it was computed.
func TestGridGolden(t *testing.T) {
	for _, c := range []struct{ size, want string }{
		{dwarfs.SizeSmall, "55192e856670e31042d0d397b340c03a1bbffa0f8dde6e61fcde6d9514205359"},
		{dwarfs.SizeMedium, "d1605d21f90053dcd9f982f975a6e1fc5f3d961458ddf5e5169a1e442813f777"},
		{dwarfs.SizeLarge, "a365ede829b29e5d20850d910131e11ac2b4c4ada86c1ba6f812c0aa030f7aea"},
	} {
		inst, q := dwarfstest.Characterise(t, New(), c.size, 1)
		q.SetSimulateOnly(false)
		if err := inst.Iterate(q); err != nil {
			t.Fatal(err)
		}
		if got := dwarfstest.Digest(inst.(*Instance).J); got != c.want {
			t.Errorf("%s: grid digest %s, want %s", c.size, got, c.want)
		}
	}
}
