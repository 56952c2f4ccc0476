package harness

// Store benchmarks. The store-hit read path: how fast a grid assembles
// from cells that are already in the store. The gated pair in
// ci/BENCH_store.json is StoreHitAssembly (decoded-slot hits: zero decode,
// shared cells) against the committed RunGridCachedCells measurement
// baseline in ci/BENCH_grid.json — serving one warmed row must be orders
// of magnitude cheaper than re-measuring it. StoreHitAssemblyUncached
// isolates the slots' own win by decoding every listed record's JSONL
// payload per assembly, the work the slots save. These three serve the
// same 5 cells as RunGridCachedCells (one srad × small row across five
// devices), so the ns/op columns compare directly.
//
// The full-grid store layer: StoreOpen, StoreAssemblyCold, StorePut and
// StoreCompact time Open, a cold GridFromStore, 656 Puts and Compact over
// the seed-2 grid's 615 cells and 41 preparations.
//
//	go test ./internal/harness -run '^$' -bench Store -benchtime 100x -benchmem

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
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

// fullStore is the seed-2 full grid's store contents, measured once per
// test binary: its records in listing order and the one segment file a
// store holding them replays.
type fullStore struct {
	recs    []store.Record
	segment []byte
}

// fullGridCells and fullGridRecords size the full-grid store: every cell
// of the 615-cell grid plus one preparation per prepared row.
const (
	fullGridCells   = 615
	fullGridRecords = 656
)

var fullStoreContents = sync.OnceValues(func() (*fullStore, error) {
	dir, err := os.MkdirTemp("", "fullstore-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	opt := DefaultOptions()
	opt.Seed = 2
	if _, err := RunGrid(context.Background(), suite.New(), GridSpec{Options: opt, Store: st}); err != nil {
		return nil, err
	}
	fs := &fullStore{}
	for _, rec := range st.Records() {
		line, err := json.Marshal(rec)
		if err != nil {
			return nil, err
		}
		fs.recs = append(fs.recs, *rec)
		fs.segment = append(append(fs.segment, line...), '\n')
	}
	return fs, nil
})

// writeFullStore writes the full-grid store into a new directory under
// parent and returns the directory.
func writeFullStore(b *testing.B, parent string) string {
	b.Helper()
	fs, err := fullStoreContents()
	if err != nil {
		b.Fatal(err)
	}
	if len(fs.recs) != fullGridRecords {
		b.Fatalf("%d records, want %d", len(fs.recs), fullGridRecords)
	}
	dir, err := os.MkdirTemp(parent, "store-")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-000001.jsonl"), fs.segment, 0o644); err != nil {
		b.Fatal(err)
	}
	return dir
}

// openStore opens dir, failing the benchmark on an error.
func openStore(b *testing.B, dir string) *store.Store {
	b.Helper()
	st, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkStoreOpen reopens the full-grid store: the cold start of every
// store consumer.
func BenchmarkStoreOpen(b *testing.B) {
	dir := writeFullStore(b, b.TempDir())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := openStore(b, dir)
		if st.Len() != fullGridRecords {
			b.Fatalf("%d records, want %d", st.Len(), fullGridRecords)
		}
		st.Close()
	}
}

// BenchmarkStoreAssemblyCold assembles the full grid through a freshly
// opened handle, so every slot misses and every cell is decoded: the first
// snapshot of a dwarfserve start. The open is outside the timer.
func BenchmarkStoreAssemblyCold(b *testing.B) {
	dir := writeFullStore(b, b.TempDir())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := openStore(b, dir)
		b.StartTimer()
		g, err := GridFromStore(st)
		if err != nil {
			b.Fatal(err)
		}
		if g.Cells() != fullGridCells {
			b.Fatalf("%d cells, want %d", g.Cells(), fullGridCells)
		}
		b.StopTimer()
		st.Close()
		b.StartTimer()
	}
}

// BenchmarkStorePut writes the full-grid store's records into an empty
// store, one Put each: the store's share of a cold sweep.
func BenchmarkStorePut(b *testing.B) {
	fs, err := fullStoreContents()
	if err != nil {
		b.Fatal(err)
	}
	parent := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir, err := os.MkdirTemp(parent, "put-")
		if err != nil {
			b.Fatal(err)
		}
		st := openStore(b, dir)
		b.StartTimer()
		for _, rec := range fs.recs {
			if err := st.Put(rec); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		st.Close()
		os.RemoveAll(dir)
		b.StartTimer()
	}
}

// BenchmarkStoreCompact compacts a reopened copy of the full-grid store:
// one segment rewritten into a snapshot.
func BenchmarkStoreCompact(b *testing.B) {
	parent := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := writeFullStore(b, parent)
		st := openStore(b, dir)
		b.StartTimer()
		if err := st.Compact(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		st.Close()
		os.RemoveAll(dir)
		b.StartTimer()
	}
}
