package data

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestRandomFeaturesDeterministicAndBounded(t *testing.T) {
	a := RandomFeatures(100, 26, 1)
	b := RandomFeatures(100, 26, 1)
	c := RandomFeatures(100, 26, 2)
	if len(a) != 2600 {
		t.Fatalf("len %d", len(a))
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed differs")
		}
		if a[i] != c[i] {
			same = false
		}
		if a[i] < 0 || a[i] >= 100 {
			t.Fatalf("feature %f out of range", a[i])
		}
	}
	if same {
		t.Fatal("different seeds identical")
	}
}

func TestRandomSequenceAlphabet(t *testing.T) {
	s := RandomSequence(1000, 23, 7)
	for _, v := range s {
		if v < 1 || v > 23 {
			t.Fatalf("residue %d out of [1,23]", v)
		}
	}
}

func TestRandomBytesDeterministic(t *testing.T) {
	if !bytes.Equal(RandomBytes(64, 5), RandomBytes(64, 5)) {
		t.Fatal("same seed differs")
	}
	if bytes.Equal(RandomBytes(64, 5), RandomBytes(64, 6)) {
		t.Fatal("different seeds identical")
	}
}

func TestDiagonallyDominant(t *testing.T) {
	n := 64
	m := DiagonallyDominantMatrix(n, 3)
	for i := 0; i < n; i++ {
		off := 0.0
		for j := 0; j < n; j++ {
			if j != i {
				off += math.Abs(float64(m[i*n+j]))
			}
		}
		if math.Abs(float64(m[i*n+i])) <= off {
			t.Fatalf("row %d not diagonally dominant", i)
		}
	}
}

func TestCreateCSRStructure(t *testing.T) {
	m, err := CreateCSR(736, 0.005, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Expected nnz ≈ n²·density.
	want := 736.0 * 736 * 0.005
	if got := float64(m.NNZ()); math.Abs(got-want)/want > 0.15 {
		t.Fatalf("nnz %v, want ≈%v", got, want)
	}
	// Paper's tiny csr footprint must land under the 32 KiB L1.
	if kib := float64(m.FootprintBytes()) / 1024; kib > 32 {
		t.Fatalf("tiny csr footprint %.1f KiB exceeds L1", kib)
	}
}

func TestCreateCSRArgs(t *testing.T) {
	if _, err := CreateCSR(0, 0.5, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := CreateCSR(10, 0, 1); err == nil {
		t.Fatal("density 0 accepted")
	}
	if _, err := CreateCSR(10, 1.5, 1); err == nil {
		t.Fatal("density >1 accepted")
	}
}

func TestCSRMulVec(t *testing.T) {
	// Identity-ish check: diagonal-only matrix at density→0.
	m, err := CreateCSR(32, 0.001, 9)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, 32)
	y := make([]float32, 32)
	for i := range x {
		x[i] = float32(i + 1)
	}
	m.MulVec(x, y)
	// Every row has at least the diagonal; recompute independently.
	for i := 0; i < m.N; i++ {
		want := float32(0)
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			want += m.Vals[k] * x[m.Cols[k]]
		}
		if y[i] != want {
			t.Fatalf("row %d: %f vs %f", i, y[i], want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch accepted")
		}
	}()
	m.MulVec(x[:3], y)
}

// Property: CreateCSR always yields a structurally valid matrix.
func TestCreateCSRValidProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, dRaw uint8) bool {
		n := int(nRaw)%200 + 1
		d := float64(dRaw%100+1) / 100
		m, err := CreateCSR(n, d, seed)
		if err != nil {
			return false
		}
		return m.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// sortColumns agrees with slices.Sort on distinct columns at one, two and
// three radix passes, below and above the row length it sorts by radix.
func TestSortColumnsMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var scratch []int32
	for passes := 1; passes <= 3; passes++ {
		for _, k := range []int{0, 5, 31, 32, 80, 200} {
			seen := map[int32]bool{}
			row := make([]int32, 0, k)
			for len(row) < k {
				if c := int32(rng.Intn(1 << (8 * passes))); !seen[c] {
					seen[c] = true
					row = append(row, c)
				}
			}
			want := slices.Sorted(slices.Values(row))
			scratch = sortColumns(row, scratch, passes)
			if !slices.Equal(row, want) {
				t.Fatalf("%d passes, %d columns: %v, want %v", passes, k, row, want)
			}
		}
	}
}

func TestGenerateLeafStructure(t *testing.T) {
	im := GenerateLeaf(200, 150, 5)
	if im.W != 200 || im.H != 150 {
		t.Fatal("bad size")
	}
	// The leaf interior must be brighter than the background corner.
	center := im.At(100, 75)
	corner := im.At(2, 2)
	if center <= corner {
		t.Fatalf("leaf body (%.0f) should be brighter than background (%.0f)", center, corner)
	}
	for _, p := range im.Pix {
		if p < 0 || p > 255 {
			t.Fatalf("pixel %f out of range", p)
		}
	}
}

func TestMoleculePresetsMatchPaperFootprints(t *testing.T) {
	// §4.4.4 reports the gem dataset footprints precisely; our synthetic
	// molecules must land on them.
	want := map[string]float64{"tiny": 31.3, "small": 252, "medium": 7498, "large": 10970.2}
	for _, p := range MoleculePresets() {
		m := GenerateMolecule(p, 1)
		kib := float64(m.FootprintBytes()) / 1024
		if math.Abs(kib-want[p.Size])/want[p.Size] > 0.005 {
			t.Errorf("%s (%s): footprint %.1f KiB, want %.1f", p.Size, p.PDBID, kib, want[p.Size])
		}
	}
}

func TestMoleculeChargeNeutrality(t *testing.T) {
	p, err := MoleculePresetFor("small")
	if err != nil {
		t.Fatal(err)
	}
	m := GenerateMolecule(p, 3)
	sum := 0.0
	for _, q := range m.AtomQ {
		sum += float64(q)
	}
	if math.Abs(sum) > 0.01*float64(m.Atoms()) {
		t.Fatalf("net charge %f not neutralised", sum)
	}
	if m.Atoms() != p.Atoms || m.Vertices() != p.Vertices {
		t.Fatal("preset counts not honoured")
	}
}

func TestMoleculeVerticesOutsideCore(t *testing.T) {
	p, _ := MoleculePresetFor("tiny")
	m := GenerateMolecule(p, 4)
	// Average vertex radius should exceed average atom radius (surface
	// encloses the atom cloud).
	radius := func(x, y, z []float32) float64 {
		s := 0.0
		for i := range x {
			s += math.Sqrt(float64(x[i]*x[i] + y[i]*y[i] + z[i]*z[i]))
		}
		return s / float64(len(x))
	}
	if rv, ra := radius(m.VertX, m.VertY, m.VertZ), radius(m.AtomX, m.AtomY, m.AtomZ); rv <= ra {
		t.Fatalf("surface (r̄=%.1f) inside atom cloud (r̄=%.1f)", rv, ra)
	}
}

func TestMoleculePresetForUnknown(t *testing.T) {
	if _, err := MoleculePresetFor("huge"); err == nil {
		t.Fatal("unknown preset accepted")
	}
}
