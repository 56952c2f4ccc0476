package suite

import (
	"testing"

	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/dwarfs/dwarfstest"
)

func TestSuiteOrderMatchesTable2(t *testing.T) {
	want := []string{"kmeans", "lud", "csr", "fft", "dwt", "srad", "crc", "nw", "gem", "nqueens", "hmm"}
	reg := New()
	all := reg.All()
	if len(all) != len(want) {
		t.Fatalf("%d benchmarks, want %d", len(all), len(want))
	}
	for i, b := range all {
		if b.Name() != want[i] {
			t.Errorf("position %d: %s, want %s (Table 2 order)", i, b.Name(), want[i])
		}
	}
}

func TestDwarfCoverage(t *testing.T) {
	// §2/§5: each benchmark names its Berkeley dwarf; fft and dwt share
	// Spectral Methods, everything else is distinct.
	reg := New()
	counts := map[string]int{}
	for _, b := range reg.All() {
		counts[b.Dwarf()]++
	}
	if counts["Spectral Methods"] != 2 {
		t.Errorf("Spectral Methods covered by %d benchmarks, want 2 (fft + dwt)", counts["Spectral Methods"])
	}
	for dwarf, n := range counts {
		if dwarf != "Spectral Methods" && n != 1 {
			t.Errorf("%s covered %d times", dwarf, n)
		}
	}
	expected := []string{
		"MapReduce", "Dense Linear Algebra", "Sparse Linear Algebra",
		"Spectral Methods", "Structured Grid", "Combinational Logic",
		"Dynamic Programming", "N-Body Methods",
		"Backtrack & Branch and Bound", "Graphical Models",
	}
	for _, d := range expected {
		if counts[d] == 0 {
			t.Errorf("dwarf %q not covered", d)
		}
	}
}

func TestEveryBenchmarkConstructsEverySize(t *testing.T) {
	reg := New()
	for _, b := range reg.All() {
		for _, size := range b.Sizes() {
			inst, err := b.New(size, 1)
			if err != nil {
				t.Errorf("%s/%s: %v", b.Name(), size, err)
				continue
			}
			if inst.FootprintBytes() <= 0 {
				t.Errorf("%s/%s: non-positive footprint", b.Name(), size)
			}
			if b.ArgString(size) == "" || b.ScaleParameter(size) == "" {
				t.Errorf("%s/%s: missing Table 2/3 metadata", b.Name(), size)
			}
		}
	}
}

func TestFootprintsOrderedBySize(t *testing.T) {
	// Within each benchmark, footprints must grow monotonically across the
	// supported sizes — the premise of the §4.4 methodology.
	reg := New()
	for _, b := range reg.All() {
		prev := int64(0)
		for _, size := range b.Sizes() {
			inst, err := b.New(size, 1)
			if err != nil {
				t.Fatal(err)
			}
			fp := inst.FootprintBytes()
			if fp <= prev {
				t.Errorf("%s: footprint not increasing at %s (%d after %d)", b.Name(), size, fp, prev)
			}
			prev = fp
		}
	}
	_ = dwarfs.Sizes()
}

// TestVerifyNeedsAnExecutingIterate: after only the simulate-only
// characterisation Iterate, no kernel has produced output, so Verify must
// refuse instead of comparing the untouched input with itself.
func TestVerifyNeedsAnExecutingIterate(t *testing.T) {
	for _, b := range New().All() {
		size := b.Sizes()[0]
		t.Run(b.Name()+"/"+size, func(t *testing.T) {
			inst, _ := dwarfstest.Characterise(t, b, size, 1)
			if err := inst.Verify(); err == nil {
				t.Fatal("Verify passed after only a simulate-only Iterate")
			}
		})
	}
}
