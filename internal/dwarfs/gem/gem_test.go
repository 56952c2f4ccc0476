package gem

import (
	"math"
	"testing"

	"opendwarfs/internal/data"
	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/dwarfs/dwarfstest"
	"opendwarfs/internal/opencl"
)

func newEnv(t *testing.T) (*opencl.Context, *opencl.CommandQueue) {
	t.Helper()
	dev, err := opencl.LookupDevice("k40m")
	if err != nil {
		t.Fatal(err)
	}
	ctx, _ := opencl.NewContext(dev)
	q, _ := opencl.NewQueue(ctx, dev)
	return ctx, q
}

func TestMetadata(t *testing.T) {
	b := New()
	if b.Name() != "gem" || b.Dwarf() != "N-Body Methods" {
		t.Fatal("metadata")
	}
	// Table 2: the scale parameters are the PDB structures.
	if got := b.ScaleParameter("tiny"); got != "4TUT" {
		t.Fatalf("Φ(tiny) = %q", got)
	}
	if got := b.ScaleParameter("large"); got != "1KX5" {
		t.Fatalf("Φ(large) = %q", got)
	}
	if got := b.ArgString("tiny"); got != "4TUT 80 1 0" {
		t.Fatalf("Table 3 args %q", got)
	}
	if _, err := b.New("colossal", 1); err == nil {
		t.Fatal("bad size accepted")
	}
}

func TestKernelMatchesSerial(t *testing.T) {
	ctx, q := newEnv(t)
	inst, err := New().New(dwarfs.SizeTiny, 77)
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

func TestPotentialPhysics(t *testing.T) {
	// A single positive charge at the origin must produce potential q/r at
	// every vertex.
	mol := &data.Molecule{
		Name:  "unit",
		AtomX: []float32{0}, AtomY: []float32{0}, AtomZ: []float32{0},
		AtomQ: []float32{2},
		VertX: []float32{1, 0, 0, 2},
		VertY: []float32{0, 4, 0, 0},
		VertZ: []float32{0, 0, 8, 0},
	}
	inst := NewInstance(mol)
	ctx, q := newEnv(t)
	if err := inst.Setup(ctx, q); err != nil {
		t.Fatal(err)
	}
	if err := inst.Iterate(q); err != nil {
		t.Fatal(err)
	}
	want := []float32{2, 0.5, 0.25, 1}
	for i, w := range want {
		if math.Abs(float64(inst.Potential()[i]-w)) > 1e-6 {
			t.Fatalf("vertex %d potential %f, want %f", i, inst.Potential()[i], w)
		}
	}
}

func TestCoincidentAtomClamped(t *testing.T) {
	// The paper notes the medium/large molecules contain uninitialised
	// values that broke CPU runs (§4.4.4); the kernel clamps r to avoid
	// the same class of blow-up.
	mol := &data.Molecule{
		Name:  "degenerate",
		AtomX: []float32{1}, AtomY: []float32{1}, AtomZ: []float32{1},
		AtomQ: []float32{1},
		VertX: []float32{1}, VertY: []float32{1}, VertZ: []float32{1},
	}
	inst := NewInstance(mol)
	ctx, q := newEnv(t)
	if err := inst.Setup(ctx, q); err != nil {
		t.Fatal(err)
	}
	if err := inst.Iterate(q); err != nil {
		t.Fatal(err)
	}
	if v := float64(inst.Potential()[0]); math.IsInf(v, 0) || math.IsNaN(v) {
		t.Fatalf("coincident vertex/atom produced %f", v)
	}
}

func TestAllPresetSizesConstruct(t *testing.T) {
	for _, size := range New().Sizes() {
		inst, err := New().New(size, 1)
		if err != nil {
			t.Fatalf("%s: %v", size, err)
		}
		if inst.FootprintBytes() <= 0 {
			t.Fatalf("%s: no footprint", size)
		}
	}
}

func TestLifecycleErrors(t *testing.T) {
	p, _ := data.MoleculePresetFor("tiny")
	inst := NewInstance(data.GenerateMolecule(p, 1))
	_, q := newEnv(t)
	if err := inst.Iterate(q); err == nil {
		t.Fatal("Iterate before Setup accepted")
	}
	if err := inst.Verify(); err == nil {
		t.Fatal("Verify before Iterate accepted")
	}
}

// Characterising a row leaves the molecule undrawn at every size, and
// Verify refuses to run without an executing Iterate.
func TestMoleculeDeferredToExecutingIterate(t *testing.T) {
	for _, size := range New().Sizes() {
		inst, _ := dwarfstest.Characterise(t, New(), size, 1)
		in := inst.(*Instance)
		if in.mol != nil || in.loaded {
			t.Errorf("%s: molecule drawn before an executing Iterate", size)
		}
		if err := in.Verify(); err == nil {
			t.Errorf("%s: Verify accepted without an executing Iterate", size)
		}
	}
}

// The atom and vertex arrays loaded at seed 1 are bitwise the molecule New
// generated when it drew eagerly; the digests were computed then. tiny,
// the one row within the default functional budget, loads through an
// executing Iterate; small and medium, which the harness keeps
// simulate-only, call the same load directly, as their V×A sums would be
// slow.
func TestLoadedMoleculeGolden(t *testing.T) {
	for _, c := range []struct {
		size    string
		execute bool
		want    string
	}{
		{dwarfs.SizeTiny, true, "3d144b97b1b2ef85842696c1c0b210f1092b50cd1a3c3fbfdf93145ccca87fb9"},
		{dwarfs.SizeSmall, false, "b0e06961475445d8b81568aae7b9204403a3ad1e06301d99dfa302ed415b15f4"},
		{dwarfs.SizeMedium, false, "575f304ca5a5d5af14853a292bf7399c4fdaa1ef6e3b631b513accd293e2f734"},
	} {
		inst, q := dwarfstest.Characterise(t, New(), c.size, 1)
		in := inst.(*Instance)
		if c.execute {
			q.SetSimulateOnly(false)
			if err := in.Iterate(q); err != nil {
				t.Fatal(err)
			}
		} else {
			in.load()
		}
		got := dwarfstest.Digest(in.atomX, in.atomY, in.atomZ, in.atomQ, in.vertX, in.vertY, in.vertZ)
		if got != c.want {
			t.Errorf("%s: molecule digest %s, want %s", c.size, got, c.want)
		}
	}
}
