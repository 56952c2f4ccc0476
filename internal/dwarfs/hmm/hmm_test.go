package hmm

import (
	"math"
	"testing"

	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/dwarfs/dwarfstest"
	"opendwarfs/internal/opencl"
)

func newEnv(t *testing.T) (*opencl.Context, *opencl.CommandQueue) {
	t.Helper()
	dev, err := opencl.LookupDevice("e5-2697v2")
	if err != nil {
		t.Fatal(err)
	}
	ctx, _ := opencl.NewContext(dev)
	q, _ := opencl.NewQueue(ctx, dev)
	return ctx, q
}

func TestMetadata(t *testing.T) {
	b := New()
	if b.Name() != "hmm" || b.Dwarf() != "Graphical Models" {
		t.Fatal("metadata")
	}
	if got := b.ArgString("tiny"); got != "-n 8 -s 1 -v s" {
		t.Fatalf("Table 3 args %q", got)
	}
	if got := b.ScaleParameter("large"); got != "2048,2048" {
		t.Fatalf("Φ %q", got)
	}
	if _, err := b.New("immense", 1); err == nil {
		t.Fatal("bad size accepted")
	}
	if _, err := NewInstance(0, 1, 1); err == nil {
		t.Fatal("zero states accepted")
	}
}

func TestKernelMatchesSerialTiny(t *testing.T) {
	// The tiny size is the one the paper validated (§4.4.4); we can do all
	// sizes functionally, but tiny is the canonical check.
	ctx, q := newEnv(t)
	inst, err := New().New(dwarfs.SizeTiny, 19)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Setup(ctx, q); err != nil {
		t.Fatal(err)
	}
	if err := dwarfs.CheckFootprint(inst, ctx); err != nil {
		t.Fatal(err)
	}
	if err := inst.Iterate(q); err != nil {
		t.Fatal(err)
	}
	if err := inst.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestMultiSymbolModel(t *testing.T) {
	ctx, q := newEnv(t)
	inst, err := NewInstance(24, 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Setup(ctx, q); err != nil {
		t.Fatal(err)
	}
	if err := inst.Iterate(q); err != nil {
		t.Fatal(err)
	}
	if err := inst.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestRowStochasticAfterUpdate(t *testing.T) {
	ctx, q := newEnv(t)
	inst, _ := NewInstance(32, 4, 3)
	if err := inst.Setup(ctx, q); err != nil {
		t.Fatal(err)
	}
	if err := inst.Iterate(q); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 32; r++ {
		sumA, sumB := float32(0), float32(0)
		for c := 0; c < 32; c++ {
			sumA += inst.a[r*32+c]
		}
		for k := 0; k < 4; k++ {
			sumB += inst.b[r*4+k]
		}
		if math.Abs(float64(sumA-1)) > 1e-3 {
			t.Fatalf("A row %d sums to %f", r, sumA)
		}
		if math.Abs(float64(sumB-1)) > 1e-3 {
			t.Fatalf("B row %d sums to %f", r, sumB)
		}
	}
}

func TestLogLikelihoodFinite(t *testing.T) {
	ctx, q := newEnv(t)
	inst, _ := NewInstance(16, 3, 8)
	if err := inst.Setup(ctx, q); err != nil {
		t.Fatal(err)
	}
	if err := inst.Iterate(q); err != nil {
		t.Fatal(err)
	}
	ll := inst.LogLikelihood()
	if math.IsNaN(ll) || math.IsInf(ll, 0) || ll > 0 {
		t.Fatalf("log-likelihood %f implausible", ll)
	}
}

func TestLaunchCount(t *testing.T) {
	// 1 forward init + (T−1) forward + (T−1) backward + gamma + A + B.
	ctx, q := newEnv(t)
	inst, _ := NewInstance(8, 2, 1)
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
	if want := 1 + (T - 1) + (T - 1) + 3; kernels != want {
		t.Fatalf("%d launches, want %d", kernels, want)
	}
}

func TestRepeatedIterationsDeterministic(t *testing.T) {
	ctx, q := newEnv(t)
	inst, _ := NewInstance(12, 2, 4)
	if err := inst.Setup(ctx, q); err != nil {
		t.Fatal(err)
	}
	if err := inst.Iterate(q); err != nil {
		t.Fatal(err)
	}
	first := append([]float32(nil), inst.a...)
	if err := inst.Iterate(q); err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i] != inst.a[i] {
			t.Fatal("re-running the same step from restored parameters diverged")
		}
	}
	if err := inst.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestFootprintsLandInPaperBands(t *testing.T) {
	tiny, _ := New().New(dwarfs.SizeTiny, 1)
	if kib := float64(tiny.FootprintBytes()) / 1024; kib > 32 {
		t.Fatalf("tiny hmm %.1f KiB exceeds L1", kib)
	}
	large, _ := New().New(dwarfs.SizeLarge, 1)
	if mib := float64(large.FootprintBytes()) / (1 << 20); mib < 32 {
		t.Fatalf("large hmm %.1f MiB below 4×L3", mib)
	}
}

func TestLifecycleErrors(t *testing.T) {
	inst, _ := NewInstance(4, 2, 1)
	_, q := newEnv(t)
	if err := inst.Iterate(q); err == nil {
		t.Fatal("Iterate before Setup accepted")
	}
	if err := inst.Verify(); err == nil {
		t.Fatal("Verify before Iterate accepted")
	}
}

// Characterising a row leaves the model undrawn at every size, and Verify
// refuses to run without an executing Iterate.
func TestModelDeferredToExecutingIterate(t *testing.T) {
	for _, size := range New().Sizes() {
		inst, _ := dwarfstest.Characterise(t, New(), size, 1)
		in := inst.(*Instance)
		if in.a0 != nil || in.b0 != nil || in.pi0 != nil {
			t.Errorf("%s: model drawn before an executing Iterate", size)
		}
		if err := in.Verify(); err == nil {
			t.Errorf("%s: Verify accepted without an executing Iterate", size)
		}
	}
}

// A, B, π and the observations drawn at seed 1 are bitwise the ones
// NewInstance generated when it drew eagerly; the digests were computed
// then. Rows within the default functional budget draw through an
// executing Iterate; medium, which the harness keeps simulate-only, calls
// the same draw directly, as executing its Baum-Welch step would be slow.
func TestDrawnModelGolden(t *testing.T) {
	for _, c := range []struct {
		size    string
		execute bool
		want    string
	}{
		{dwarfs.SizeTiny, true, "1c0f24f8106f279b0e79c90a9b0291a7b0389db92499bdd25093d93db38a27f5"},
		{dwarfs.SizeSmall, true, "6703078143a3426c7b480341c1a3b272345a4d594e74691674138de02026cb2a"},
		{dwarfs.SizeMedium, false, "9980caf5011f3dc2c996cb6d3feb9da75140d0e8e0372bd5ca2cbf993369353c"},
	} {
		inst, q := dwarfstest.Characterise(t, New(), c.size, 1)
		in := inst.(*Instance)
		if c.execute {
			q.SetSimulateOnly(false)
			if err := in.Iterate(q); err != nil {
				t.Fatal(err)
			}
		} else {
			in.draw()
		}
		if got := dwarfstest.Digest(in.a0, in.b0, in.pi0, in.obs); got != c.want {
			t.Errorf("%s: model digest %s, want %s", c.size, got, c.want)
		}
	}
}

// TestStepGolden pins A and B after one executing Iterate at seed 1, and
// requires serialStep's replay to match them bit for bit. Verify allows
// each value 1e-5, so a sum taken in another order would pass it; this
// digest would not.
func TestStepGolden(t *testing.T) {
	for _, c := range []struct{ size, want string }{
		{dwarfs.SizeTiny, "659a49ff658a21081e3addca3d0f9a879d3aca6e8187132f6f7afffd9148e1e9"},
		{dwarfs.SizeSmall, "72bfacd902ce00a3849b971ea891e5ce6c4b8efc5582316be055226929404af5"},
	} {
		inst, q := dwarfstest.Characterise(t, New(), c.size, 1)
		q.SetSimulateOnly(false)
		if err := inst.Iterate(q); err != nil {
			t.Fatal(err)
		}
		in := inst.(*Instance)
		if got := dwarfstest.Digest(in.a, in.b); got != c.want {
			t.Errorf("%s: kernel A, B digest %s, want %s", c.size, got, c.want)
		}
		refA, refB := in.serialStep()
		if got := dwarfstest.Digest(refA, refB); got != c.want {
			t.Errorf("%s: serialStep A, B digest %s, want %s", c.size, got, c.want)
		}
	}
}
