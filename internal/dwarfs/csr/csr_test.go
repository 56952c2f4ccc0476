package csr

import (
	"testing"

	"opendwarfs/internal/data"
	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/dwarfs/dwarfstest"
	"opendwarfs/internal/opencl"
)

func newEnv(t *testing.T) (*opencl.Context, *opencl.CommandQueue) {
	t.Helper()
	dev, err := opencl.LookupDevice("gtx1080")
	if err != nil {
		t.Fatal(err)
	}
	ctx, _ := opencl.NewContext(dev)
	q, _ := opencl.NewQueue(ctx, dev)
	return ctx, q
}

func TestMetadata(t *testing.T) {
	b := New()
	if b.Name() != "csr" || b.Dwarf() != "Sparse Linear Algebra" {
		t.Fatal("metadata")
	}
	if got := b.ScaleParameter("tiny"); got != "736" {
		t.Fatalf("Φ(tiny) = %q", got)
	}
	if got := b.ScaleParameter("large"); got != "16384" {
		t.Fatalf("Φ(large) = %q", got)
	}
	if _, err := b.New("nope", 1); err == nil {
		t.Fatal("bad size accepted")
	}
}

func TestSpMVMatchesReference(t *testing.T) {
	for _, size := range []string{dwarfs.SizeTiny, dwarfs.SizeSmall} {
		ctx, q := newEnv(t)
		inst, err := New().New(size, 5)
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
			t.Fatalf("%s: %v", size, err)
		}
	}
}

func TestRepeatedIterationsStable(t *testing.T) {
	ctx, q := newEnv(t)
	inst, err := NewInstance(512, 0.01, 3)
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

func TestTinyFootprintFitsL1(t *testing.T) {
	inst, err := New().New(dwarfs.SizeTiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	if kib := float64(inst.FootprintBytes()) / 1024; kib > 32 {
		t.Fatalf("tiny csr %.1f KiB exceeds L1", kib)
	}
}

func TestLifecycleErrors(t *testing.T) {
	inst, _ := NewInstance(64, 0.1, 1)
	_, q := newEnv(t)
	if err := inst.Iterate(q); err == nil {
		t.Fatal("Iterate before Setup accepted")
	}
	if err := inst.Verify(); err == nil {
		t.Fatal("Verify before Iterate accepted")
	}
}

func TestProfileReflectsDensity(t *testing.T) {
	sparse, _ := NewInstance(1024, 0.005, 1)
	dense, _ := NewInstance(1024, 0.1, 1)
	ps := sparse.profile(opencl.NDR1(1024, 64))
	pd := dense.profile(opencl.NDR1(1024, 64))
	if pd.FlopsPerItem <= ps.FlopsPerItem {
		t.Fatal("denser matrix must carry more flops per row")
	}
	if err := ps.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCreateCSRGolden pins the generated matrices bit for bit at the four
// Table 2 sizes: data.CreateCSR must keep every rng draw in its order (the
// k decision, every column draw including duplicates, one value per sorted
// column), so any change to the generator that alters a dataset fails here.
func TestCreateCSRGolden(t *testing.T) {
	want := map[string]string{
		dwarfs.SizeTiny:   "d1aec7070693f35bcab37db9b0af8ab7668252ca194d0fcc7df9dae2b2b12604",
		dwarfs.SizeSmall:  "20c6fabda7fccdf40c6f81a9836c492605779fe65253c7860246541ccb569b8e",
		dwarfs.SizeMedium: "7ddc4bdc06630ba1991d662a2776f0306f4867a9d9f7ef72b99df6e3f647cc82",
		dwarfs.SizeLarge:  "bd7de0d13ea7128f0a4fbaa31f4c001b993e62bd584263386d8666f07b64fe9f",
	}
	for _, size := range dwarfs.Sizes() {
		m, err := data.CreateCSR(nBySize[size], Density, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := dwarfstest.Digest(m.RowPtr, m.Cols, m.Vals); got != want[size] {
			t.Errorf("%s: matrix digest %s, want %s", size, got, want[size])
		}
	}
}
