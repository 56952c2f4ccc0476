package harness

// Replay benchmarks: the per-cell work of a grid run over stored rows, one
// layer each, on the seed-2 full grid (fullStoreContents). Decoding reads
// the 41 stored preparations, CellKey keys the 615 cells as a run does
// (parts encoded once, then one key per cell), and Measure replays the 615
// cells from the 41 decoded rows.
//
//	go test ./internal/harness -run '^$' -bench 'DecodePreparation|CellKey|Measure' -benchmem -cpu 1

import (
	"context"
	"testing"

	"opendwarfs/internal/opencl"
	"opendwarfs/internal/store"
	"opendwarfs/internal/suite"
)

// storedPrepRecords returns the full grid's 41 preparation records.
func storedPrepRecords(b *testing.B) []store.Record {
	b.Helper()
	fs, err := fullStoreContents()
	if err != nil {
		b.Fatal(err)
	}
	var recs []store.Record
	for _, rec := range fs.recs {
		if rec.Schema != StoreSchemaVersion {
			recs = append(recs, rec)
		}
	}
	if len(recs) != fullGridRecords-fullGridCells {
		b.Fatalf("%d preparation records, want %d", len(recs), fullGridRecords-fullGridCells)
	}
	return recs
}

// BenchmarkDecodePreparation decodes the 41 stored preparations: a widening
// sweep's whole prepare phase.
func BenchmarkDecodePreparation(b *testing.B) {
	recs := storedPrepRecords(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rec := range recs {
			if _, err := decodePreparation(rec.Value); err != nil {
				b.Fatal(err)
			}
		}
	}
}

var keySink string

// BenchmarkCellKey keys the full grid's 615 cells as a store-backed run
// does, its per-run encoding included.
func BenchmarkCellKey(b *testing.B) {
	cells, _, err := planCells(suite.New(), GridSpec{})
	if err != nil {
		b.Fatal(err)
	}
	if len(cells) != fullGridCells {
		b.Fatalf("%d cells, want %d", len(cells), fullGridCells)
	}
	opt := DefaultOptions()
	opt.Seed = 2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keys := newCellKeys(cells, opt)
		for _, c := range cells {
			keySink = keys.key(c)
		}
	}
}

// BenchmarkMeasure measures the full grid's 615 cells from its 41 rows,
// decoded from the store outside the timer: the model replay and sampling
// every miss pays.
func BenchmarkMeasure(b *testing.B) {
	reg := suite.New()
	var preps []*Preparation
	for _, rec := range storedPrepRecords(b) {
		p, err := decodePreparation(rec.Value)
		if err != nil {
			b.Fatal(err)
		}
		bench, err := reg.Get(rec.Benchmark)
		if err != nil {
			b.Fatal(err)
		}
		p.Benchmark, p.Dwarf, p.Size = bench.Name(), bench.Dwarf(), rec.Size
		preps = append(preps, p)
	}
	devices := opencl.AllDevices()
	if n := len(preps) * len(devices); n != fullGridCells {
		b.Fatalf("%d cells, want %d", n, fullGridCells)
	}
	opt := DefaultOptions()
	opt.Seed = 2
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range preps {
			for _, dev := range devices {
				if _, err := p.Measure(ctx, dev, opt); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
