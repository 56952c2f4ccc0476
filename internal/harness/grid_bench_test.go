package harness

// Grid-harness benchmarks: the sequential/parallel pair quantifies the
// worker-pool speedup on a 60-cell grid (3 benchmarks × 4 sizes × 5
// devices). Both share the per-row preparation cache, so the pair isolates
// the dispatch win; BenchmarkRunGridUncachedCells isolates the cache win
// by measuring the same row the pre-cache harness re-prepared per device.
// BenchmarkPrepare times single rows' preparations.
//
//	go test ./internal/harness -bench 'RunGrid|Prepare' -benchtime 3x

import (
	"context"

	"runtime"
	"testing"

	"opendwarfs/internal/obs"
	"opendwarfs/internal/opencl"
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
		c := newPrepCache()
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
// are never drawn and each costs only the characterisation pass; csr/large
// and fft/medium generate, execute and verify.
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
