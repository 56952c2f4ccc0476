package harness

// Store-hit read-path benchmarks: how fast a grid assembles from cells that
// are already in the store. The gated pair in ci/BENCH_store.json is
// StoreHitAssembly (decoded-slot hits: zero decode, shared cells) against
// the committed RunGridCachedCells measurement baseline in
// ci/BENCH_grid.json — serving one warmed row must be orders of magnitude
// cheaper than re-measuring it. StoreHitAssemblyUncached isolates the
// slots' own win by decoding every listed record's JSONL payload per
// assembly, the work the slots save.
//
//	go test ./internal/harness -run '^$' -bench StoreHit -benchtime 100x
//
// All three benchmarks serve the same 5 cells as RunGridCachedCells (one
// srad × small row across five devices), so the ns/op columns compare
// directly.

import (
	"context"
	"testing"

	"opendwarfs/internal/store"
	"opendwarfs/internal/suite"
)

// benchRowSpec is the srad × small × 5-device row of the measurement
// benchmarks, as a store-backed grid spec.
func benchRowSpec(st store.CellStore) GridSpec {
	opt := DefaultOptions()
	opt.Samples = 8
	return GridSpec{
		Benchmarks: []string{"srad"},
		Sizes:      []string{"small"},
		Devices:    []string{"i7-6700k", "gtx1080", "k20m", "r9-290x", "knl-7210"},
		Options:    opt,
		Workers:    1,
		Store:      st,
	}
}

// warmStore sweeps the benchmark row into a fresh store and returns it with
// every cell's slot already decoded (one GridFromStore pass warms them).
func warmStore(b *testing.B) store.CellStore {
	b.Helper()
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	if _, err := RunGrid(context.Background(), suite.New(), benchRowSpec(st)); err != nil {
		b.Fatal(err)
	}
	if _, err := GridFromStore(st); err != nil { // warm the slots
		b.Fatal(err)
	}
	return st
}

// BenchmarkStoreHitAssembly is the gated zero-copy number: assembling the
// row from warm slots — no JSON parsing, cells shared by pointer.
func BenchmarkStoreHitAssembly(b *testing.B) {
	st := warmStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := GridFromStore(st)
		if err != nil {
			b.Fatal(err)
		}
		if g.Cells() != 5 {
			b.Fatalf("%d cells, want 5", g.Cells())
		}
	}
}

// BenchmarkStoreHitAssemblyUncached assembles the same row the way
// GridFromStore would without the slots: every listed record's payload is
// decoded per call.
func BenchmarkStoreHitAssemblyUncached(b *testing.B) {
	st := warmStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := &Grid{}
		for _, rec := range st.Records() {
			if rec.Schema != StoreSchemaVersion {
				continue
			}
			m, err := DecodeMeasurement(rec.Value)
			if err != nil {
				b.Fatal(err)
			}
			g.Measurements = append(g.Measurements, m)
		}
		if g.Cells() != 5 {
			b.Fatalf("%d cells, want 5", g.Cells())
		}
	}
}

// BenchmarkStoreHitRunGrid serves the row through the full grid harness —
// worker pool, event accounting, per-cell spans — with every cell a store
// hit. The delta over StoreHitAssembly is the harness's own dispatch cost.
func BenchmarkStoreHitRunGrid(b *testing.B) {
	st := warmStore(b)
	reg := suite.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := RunGrid(context.Background(), reg, benchRowSpec(st))
		if err != nil {
			b.Fatal(err)
		}
		if g.StoreHits != 5 {
			b.Fatalf("%d store hits, want 5", g.StoreHits)
		}
	}
}
