package nw

import (
	"fmt"
	"strings"
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
	if b.Name() != "nw" || b.Dwarf() != "Dynamic Programming" {
		t.Fatal("metadata")
	}
	if got := b.ArgString("large"); got != "4096 10" {
		t.Fatalf("Table 3 args %q", got)
	}
	if _, err := b.New("huge", 1); err == nil {
		t.Fatal("bad size accepted")
	}
	if _, err := NewInstance(50, 1); err == nil {
		t.Fatal("non-multiple-of-16 length accepted")
	}
}

func TestKernelMatchesSerial(t *testing.T) {
	for _, size := range []string{dwarfs.SizeTiny, dwarfs.SizeSmall} {
		ctx, q := newEnv(t)
		inst, err := New().New(size, 31)
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

func TestIdenticalSequencesScoreHighest(t *testing.T) {
	// Aligning a sequence against itself must not be beaten by aligning
	// it against an unrelated sequence (with this match-positive table).
	ctx, q := newEnv(t)
	same, err := NewInstance(2*BlockSize, 5)
	if err != nil {
		t.Fatal(err)
	}
	same.seq2 = append([]int32(nil), same.seq1...) // identical sequences
	if err := same.Setup(ctx, q); err != nil {
		t.Fatal(err)
	}
	if err := same.Iterate(q); err != nil {
		t.Fatal(err)
	}

	ctx2, q2 := newEnv(t)
	diff, _ := NewInstance(2*BlockSize, 5)
	if err := diff.Setup(ctx2, q2); err != nil {
		t.Fatal(err)
	}
	if err := diff.Iterate(q2); err != nil {
		t.Fatal(err)
	}
	if same.Score() <= diff.Score() {
		t.Fatalf("self-alignment score %d not above cross-alignment %d", same.Score(), diff.Score())
	}
}

func TestScoreSymmetry(t *testing.T) {
	// Swapping the two sequences transposes the DP matrix; the final score
	// is identical because the substitution table is symmetric.
	ctx, q := newEnv(t)
	a, _ := NewInstance(3*BlockSize, 7)
	if err := a.Setup(ctx, q); err != nil {
		t.Fatal(err)
	}
	if err := a.Iterate(q); err != nil {
		t.Fatal(err)
	}

	ctx2, q2 := newEnv(t)
	b, _ := NewInstance(3*BlockSize, 7)
	b.seq1, b.seq2 = b.seq2, b.seq1
	if err := b.Setup(ctx2, q2); err != nil {
		t.Fatal(err)
	}
	if err := b.Iterate(q2); err != nil {
		t.Fatal(err)
	}
	if a.Score() != b.Score() {
		t.Fatalf("alignment score not symmetric: %d vs %d", a.Score(), b.Score())
	}
}

func TestLaunchCountIsWavefront(t *testing.T) {
	ctx, q := newEnv(t)
	inst, _ := NewInstance(4*BlockSize, 1)
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
	want := 2*4 - 1
	if kernels != want {
		t.Fatalf("%d launches, want %d (2·nb−1)", kernels, want)
	}
	if inst.Launches() != want {
		t.Fatalf("Launches() = %d", inst.Launches())
	}
}

func TestRepeatedIterations(t *testing.T) {
	ctx, q := newEnv(t)
	inst, _ := NewInstance(2*BlockSize, 3)
	if err := inst.Setup(ctx, q); err != nil {
		t.Fatal(err)
	}
	var first int32
	for i := 0; i < 3; i++ {
		if err := inst.Iterate(q); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = inst.Score()
		}
	}
	if inst.Score() != first {
		t.Fatal("alignment score drifted across iterations")
	}
	if err := inst.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestGapOnlyBorders(t *testing.T) {
	ctx, q := newEnv(t)
	inst, _ := NewInstance(BlockSize, 11)
	if err := inst.Setup(ctx, q); err != nil {
		t.Fatal(err)
	}
	if err := inst.Iterate(q); err != nil {
		t.Fatal(err)
	}
	dim := inst.n + 1
	for i := 1; i < dim; i++ {
		if inst.m[i*dim] != int32(-i*Penalty) || inst.m[i] != int32(-i*Penalty) {
			t.Fatalf("border row/col corrupted at %d", i)
		}
	}
}

func TestLifecycleErrors(t *testing.T) {
	inst, _ := NewInstance(BlockSize, 1)
	_, q := newEnv(t)
	if err := inst.Iterate(q); err == nil {
		t.Fatal("Iterate before Setup accepted")
	}
	if err := inst.Verify(); err == nil {
		t.Fatal("Verify before Iterate accepted")
	}
}

// Verify rejects a single corrupted cell — on the border, in the
// interior or in the last row — and names that cell.
func TestVerifyNamesCorruptedCell(t *testing.T) {
	ctx, q := newEnv(t)
	inst, _ := NewInstance(3*BlockSize, 5)
	if err := inst.Setup(ctx, q); err != nil {
		t.Fatal(err)
	}
	if err := inst.Iterate(q); err != nil {
		t.Fatal(err)
	}
	if err := inst.Verify(); err != nil {
		t.Fatal(err)
	}
	dim := inst.n + 1
	for _, c := range []struct {
		name string
		idx  int
	}{
		{"border", 7 * dim},
		{"interior", 20*dim + 33},
		{"last row", (dim-1)*dim + 9},
	} {
		inst.m[c.idx]++
		err := inst.Verify()
		inst.m[c.idx]--
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("cell %d ", c.idx)) {
			t.Errorf("%s cell %d corrupted: Verify returned %v", c.name, c.idx, err)
		}
	}
	if err := inst.Verify(); err != nil {
		t.Fatalf("restored matrix: %v", err)
	}
}

// TestMatrixGolden pins the DP matrix one executing Iterate fills at seed
// 1, after the characterisation pass harness.Prepare runs first. Verify
// replays the same match scores the kernel reads, so a shared slip in how
// both look a score up would pass it; this digest would not.
func TestMatrixGolden(t *testing.T) {
	for _, c := range []struct{ size, want string }{
		{dwarfs.SizeSmall, "0a032d609aa7cf2e3e291d56558386e9149d402e69f80b12fb69f97fd6528858"},
		{dwarfs.SizeMedium, "b6335a78d0d440d8c8ad7ca40c25d6a2e51379c3549b6cfa71284b5e130826df"},
		{dwarfs.SizeLarge, "0e7b155d026539be7683edd5ceab36412cbad061730873d6e159fb052c66fbad"},
	} {
		inst, q := dwarfstest.Characterise(t, New(), c.size, 1)
		q.SetSimulateOnly(false)
		if err := inst.Iterate(q); err != nil {
			t.Fatal(err)
		}
		if got := dwarfstest.Digest(inst.(*Instance).m); got != c.want {
			t.Errorf("%s: matrix digest %s, want %s", c.size, got, c.want)
		}
	}
}
