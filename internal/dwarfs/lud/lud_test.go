package lud

import (
	"testing"

	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/dwarfs/dwarfstest"
	"opendwarfs/internal/opencl"
)

func newEnv(t *testing.T) (*opencl.Context, *opencl.CommandQueue) {
	t.Helper()
	dev, err := opencl.LookupDevice("i7-6700k")
	if err != nil {
		t.Fatal(err)
	}
	ctx, _ := opencl.NewContext(dev)
	q, _ := opencl.NewQueue(ctx, dev)
	return ctx, q
}

func TestMetadata(t *testing.T) {
	b := New()
	if b.Name() != "lud" || b.Dwarf() != "Dense Linear Algebra" {
		t.Fatal("metadata")
	}
	if got := b.ArgString("medium"); got != "-s 1440" {
		t.Fatalf("Table 3 args %q", got)
	}
	if _, err := b.New("giga", 1); err == nil {
		t.Fatal("bad size accepted")
	}
	if _, err := NewInstance(100, 1); err == nil {
		t.Fatal("non-multiple-of-16 dimension accepted")
	}
	if _, err := NewInstance(0, 1); err == nil {
		t.Fatal("zero dimension accepted")
	}
}

func TestDecompositionTiny(t *testing.T) {
	// Table 2 tiny: 80×80.
	ctx, q := newEnv(t)
	inst, err := New().New(dwarfs.SizeTiny, 21)
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

func TestDecompositionSmall(t *testing.T) {
	ctx, q := newEnv(t)
	inst, err := New().New(dwarfs.SizeSmall, 4)
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

func TestSingleBlockMatrix(t *testing.T) {
	// n = B: only the diagonal kernel runs.
	ctx, q := newEnv(t)
	inst, err := NewInstance(B, 8)
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

func TestRepeatedIterationsRestoreInput(t *testing.T) {
	// Iterate destroys the matrix in place; a second Iterate must restore
	// and still verify.
	ctx, q := newEnv(t)
	inst, err := NewInstance(2*B, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Setup(ctx, q); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := inst.Iterate(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := inst.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestLaunchCount(t *testing.T) {
	// The wavefront structure issues 3·nb−2 kernels: nb diagonal, nb−1
	// perimeter, nb−1 internal.
	ctx, q := newEnv(t)
	inst, err := NewInstance(5*B, 1)
	if err != nil {
		t.Fatal(err)
	}
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
	if want := 3*5 - 2; kernels != want {
		t.Fatalf("%d kernel launches, want %d", kernels, want)
	}
}

func TestFootprint(t *testing.T) {
	inst, _ := NewInstance(240, 1)
	if got := inst.FootprintBytes(); got != 240*240*4 {
		t.Fatalf("footprint %d", got)
	}
	// Table 2 medium (1440) must fit L3 (8 MiB): 1440²·4 = 7.9 MiB.
	m, _ := NewInstance(1440, 1)
	if kib := m.FootprintBytes() / 1024; kib > 8192 {
		t.Fatalf("medium %d KiB exceeds L3", kib)
	}
}

func TestLifecycleErrors(t *testing.T) {
	inst, _ := NewInstance(B, 1)
	_, q := newEnv(t)
	if err := inst.Iterate(q); err == nil {
		t.Fatal("Iterate before Setup accepted")
	}
	if err := inst.Verify(); err == nil {
		t.Fatal("Verify before Iterate accepted")
	}
}

// Characterising a row leaves the matrix undrawn at every size, and Verify
// refuses to run without an executing Iterate.
func TestMatrixDeferredToExecutingIterate(t *testing.T) {
	for _, size := range New().Sizes() {
		inst, _ := dwarfstest.Characterise(t, New(), size, 1)
		in := inst.(*Instance)
		if in.original != nil {
			t.Errorf("%s: matrix drawn before an executing Iterate", size)
		}
		if err := in.Verify(); err == nil {
			t.Errorf("%s: Verify accepted without an executing Iterate", size)
		}
	}
}

// The matrix drawn at seed 1 is bitwise the one Setup generated when it
// drew eagerly; the digests were computed then. Rows within the default
// functional budget draw through an executing Iterate; medium, which the
// harness keeps simulate-only, calls the same draw directly, as executing
// its decomposition would take seconds.
func TestDrawnMatrixGolden(t *testing.T) {
	for _, c := range []struct {
		size    string
		execute bool
		want    string
	}{
		{dwarfs.SizeTiny, true, "56c87f175614de74ea00fc60648b16e17ea06a946c9cc3bb8742505c4cb37ecd"},
		{dwarfs.SizeSmall, true, "7b6d278641a097049f82f84729ca613d5e23af6f36eff11e27bf8454dc2ae900"},
		{dwarfs.SizeMedium, false, "346ce6c57320c760f3d032d701342ff165c2cd4459af07baa696476290d38bcf"},
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
		if got := dwarfstest.Digest(in.original); got != c.want {
			t.Errorf("%s: matrix digest %s, want %s", c.size, got, c.want)
		}
	}
}
