package harness

// Grid-harness benchmarks: the sequential/parallel pair quantifies the
// worker-pool speedup on a 60-cell grid (3 benchmarks × 4 sizes × 5
// devices). Both share the per-row preparation cache, so the pair isolates
// the dispatch win; BenchmarkRunGridUncachedCells isolates the cache win
// by measuring the same row the pre-cache harness re-prepared per device.
// BenchmarkRunGridAddDevice times the same grid when four of its five
// devices are already stored. BenchmarkPrepare times single rows'
// preparations.
//
//	go test ./internal/harness -bench 'RunGrid|Prepare' -benchtime 3x

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"opendwarfs/internal/obs"
	"opendwarfs/internal/opencl"
	"opendwarfs/internal/store"
	"opendwarfs/internal/suite"
)

// benchGridSpec runs with observability fully enabled — a metrics
// registry and a tracer per run — so the committed BENCH_grid.json bounds
// hold for the instrumented hot path, not a stripped one.
func benchGridSpec(workers int) GridSpec {
	opt := DefaultOptions()
	opt.Samples = 8
	return GridSpec{
		Benchmarks: []string{"kmeans", "csr", "srad"},
		Sizes:      []string{"tiny", "small", "medium", "large"},
		Devices:    []string{"i7-6700k", "gtx1080", "k20m", "r9-290x", "knl-7210"},
		Options:    opt,
		Workers:    workers,
		Metrics:    obs.NewRegistry(),
		Tracer:     obs.NewTracer(),
	}
}

func runGridBenchmark(b *testing.B, workers int) {
	reg := suite.New()
	b.ReportMetric(float64(workers), "workers")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := RunGrid(context.Background(), reg, benchGridSpec(workers))
		if err != nil {
			b.Fatal(err)
		}
		if g.Cells() != 60 {
			b.Fatalf("%d cells, want 60", g.Cells())
		}
	}
}

// BenchmarkRunGridSequential is the Workers: 1 baseline.
func BenchmarkRunGridSequential(b *testing.B) { runGridBenchmark(b, 1) }

// BenchmarkRunGridParallel dispatches the same grid across one worker per
// CPU. On a ≥4-core machine the wall-clock ratio to the sequential
// baseline approaches the core count, because row preparations and cell
// measurements overlap freely.
func BenchmarkRunGridParallel(b *testing.B) { runGridBenchmark(b, runtime.GOMAXPROCS(0)) }

// BenchmarkRunGridAddDevice adds a fifth device to a store that holds the
// same 60-cell grid's other four: 48 hits and 12 misses, whose 12 rows are
// all decoded from their stored preparations, so it times store reads and
// model replay with zero Prepares. The store is copied and opened outside
// the timer.
func BenchmarkRunGridAddDevice(b *testing.B) {
	reg := suite.New()
	fixture := b.TempDir()
	st, err := store.Open(fixture)
	if err != nil {
		b.Fatal(err)
	}
	spec := benchGridSpec(1)
	spec.Devices = spec.Devices[:4]
	spec.Store = st
	if _, err := RunGrid(context.Background(), reg, spec); err != nil {
		b.Fatal(err)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		copyStore(b, fixture, dir)
		st, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		spec := benchGridSpec(1)
		spec.Store = st
		b.StartTimer()
		g, err := RunGrid(context.Background(), reg, spec)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if g.StoreHits != 48 || g.StoreMisses != 12 {
			b.Fatalf("%d hits / %d misses, want 48 / 12", g.StoreHits, g.StoreMisses)
		}
		if n := spec.Metrics.CounterValue(mPreparesTotal); n != 0 {
			b.Fatalf("%d prepares adding a device to a stored grid, want 0", n)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// copyStore copies the files of store directory src into dst.
func copyStore(b *testing.B, src, dst string) {
	b.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunGridUncachedCells measures one row the way the pre-cache
// harness did: a full Prepare per device. Comparing against
// BenchmarkRunGridCachedCells shows the per-row characterisation cost the
// cache removes for 14 of every 15 devices.
func BenchmarkRunGridUncachedCells(b *testing.B) {
	reg := suite.New()
	bench, err := reg.Get("srad")
	if err != nil {
		b.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Samples = 8
	devs := []string{"i7-6700k", "gtx1080", "k20m", "r9-290x", "knl-7210"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, id := range devs {
			dev, err := opencl.LookupDevice(id)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := Run(context.Background(), bench, "small", dev, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRunGridCachedCells is the same row through the shared cache.
func BenchmarkRunGridCachedCells(b *testing.B) {
	reg := suite.New()
	bench, err := reg.Get("srad")
	if err != nil {
		b.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Samples = 8
	devs := []string{"i7-6700k", "gtx1080", "k20m", "r9-290x", "knl-7210"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := newPrepCache(nil, gridMetrics{})
		for _, id := range devs {
			dev, err := opencl.LookupDevice(id)
			if err != nil {
				b.Fatal(err)
			}
			p, err := c.prepare(context.Background(), bench, "small", opt)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Measure(context.Background(), dev, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPrepare times one row's Prepare at the paper's options. dwt,
// lud and hmm at large exceed the functional budget, so their datasets
// are never drawn and each costs only the characterisation pass; csr/large,
// fft/medium, nw/large, hmm/small and srad/large generate, execute and
// verify.
func BenchmarkPrepare(b *testing.B) {
	reg := suite.New()
	opt := DefaultOptions()
	for _, row := range []struct {
		bench, size string
		functional  bool
	}{
		{"dwt", "large", false},
		{"lud", "large", false},
		{"hmm", "large", false},
		{"csr", "large", true},
		{"fft", "medium", true},
		{"nw", "large", true},
		{"hmm", "small", true},
		{"srad", "large", true},
	} {
		bench, err := reg.Get(row.bench)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(row.bench+"/"+row.size, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := Prepare(context.Background(), bench, row.size, opt)
				if err != nil {
					b.Fatal(err)
				}
				if p.Functional != row.functional {
					b.Fatalf("Functional = %v, want %v", p.Functional, row.functional)
				}
			}
		})
	}
}
