package opendwarfs

// One testing.B benchmark per table and figure of the paper (DESIGN.md §4),
// plus micro-benchmarks of the runtime substrates. Each figure benchmark
// regenerates the figure's full data series (benchmark × sizes × all 15
// devices) per iteration and reports the headline comparative metric the
// paper draws from that figure, so `go test -bench .` doubles as the
// experiment driver:
//
//	go test -bench BenchmarkFigure3a -benchmem
//
// Absolute numbers come from the device timing models (DESIGN.md §2); the
// reported ratios are the paper's qualitative findings that DESIGN.md §4's
// shape acceptance criteria judge the reproduction on.

import (
	"context"

	"io"
	"testing"

	"opendwarfs/internal/cache"
	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/harness"
	"opendwarfs/internal/opencl"
	"opendwarfs/internal/report"
	"opendwarfs/internal/sim"
	"opendwarfs/internal/suite"
)

// benchGridOpts are the reduced-cost measurement options used by the
// figure benchmarks: timing model only, 6 samples.
func benchGridOpts() harness.Options {
	opt := harness.DefaultOptions()
	opt.Samples = 6
	opt.MaxFunctionalOps = 0
	opt.Verify = false
	return opt
}

// figureGrid regenerates one benchmark's figure series.
func figureGrid(b *testing.B, bench string, sizes []string) *harness.Grid {
	b.Helper()
	g, err := harness.RunGrid(context.Background(), suite.New(), harness.GridSpec{
		Benchmarks: []string{bench},
		Sizes:      sizes,
		Options:    benchGridOpts(),
	})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func medianOf(b *testing.B, g *harness.Grid, bench, size, dev string) float64 {
	b.Helper()
	m := g.Find(bench, size, dev)
	if m == nil {
		b.Fatalf("missing cell %s/%s/%s", bench, size, dev)
	}
	return m.Kernel.Median
}

// BenchmarkTable1Hardware renders the device catalogue (Table 1).
func BenchmarkTable1Hardware(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report.Table1Hardware(io.Discard)
	}
}

// BenchmarkTable2Sizes renders the workload scale parameters (Table 2).
func BenchmarkTable2Sizes(b *testing.B) {
	reg := suite.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.Table2Sizes(io.Discard, reg)
	}
}

// BenchmarkTable3Args renders the program arguments (Table 3).
func BenchmarkTable3Args(b *testing.B) {
	reg := suite.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.Table3Args(io.Discard, reg)
	}
}

// BenchmarkFigure1CRC regenerates Figure 1 (crc, 4 sizes × 15 devices) and
// reports the paper's headline: the best GPU is slower than the best CPU.
func BenchmarkFigure1CRC(b *testing.B) {
	var g *harness.Grid
	for i := 0; i < b.N; i++ {
		g = figureGrid(b, "crc", dwarfs.Sizes())
	}
	gpu := medianOf(b, g, "crc", "large", "gtx1080")
	cpu := medianOf(b, g, "crc", "large", "i7-6700k")
	b.ReportMetric(gpu/cpu, "gpu/cpu_time_ratio")
	knl := medianOf(b, g, "crc", "large", "knl-7210")
	b.ReportMetric(knl/cpu, "knl/cpu_time_ratio")
}

// BenchmarkFigure2aKmeans reports the CPU/GPU parity the paper highlights.
func BenchmarkFigure2aKmeans(b *testing.B) {
	var g *harness.Grid
	for i := 0; i < b.N; i++ {
		g = figureGrid(b, "kmeans", dwarfs.Sizes())
	}
	b.ReportMetric(medianOf(b, g, "kmeans", "large", "i7-6700k")/medianOf(b, g, "kmeans", "large", "gtx1080"), "cpu/gpu_time_ratio")
}

// BenchmarkFigure2bLUD reports the i5-3550 medium-size degradation
// (its 6 MiB L3 misses the 8 MiB working set).
func BenchmarkFigure2bLUD(b *testing.B) {
	var g *harness.Grid
	for i := 0; i < b.N; i++ {
		g = figureGrid(b, "lud", dwarfs.Sizes())
	}
	i5 := medianOf(b, g, "lud", "medium", "i5-3550") / medianOf(b, g, "lud", "small", "i5-3550")
	i7 := medianOf(b, g, "lud", "medium", "i7-6700k") / medianOf(b, g, "lud", "small", "i7-6700k")
	b.ReportMetric(i5/i7, "i5_vs_i7_medium_blowup")
}

// BenchmarkFigure2cCSR reports the GPU advantage on sparse bandwidth.
func BenchmarkFigure2cCSR(b *testing.B) {
	var g *harness.Grid
	for i := 0; i < b.N; i++ {
		g = figureGrid(b, "csr", dwarfs.Sizes())
	}
	b.ReportMetric(medianOf(b, g, "csr", "large", "i7-6700k")/medianOf(b, g, "csr", "large", "gtx1080"), "cpu/gpu_time_ratio")
}

// BenchmarkFigure2dDWT reports the spectral-methods latency wall on CPUs.
func BenchmarkFigure2dDWT(b *testing.B) {
	var g *harness.Grid
	for i := 0; i < b.N; i++ {
		g = figureGrid(b, "dwt", dwarfs.Sizes())
	}
	b.ReportMetric(medianOf(b, g, "dwt", "large", "i7-6700k")/medianOf(b, g, "dwt", "large", "gtx1080"), "cpu/gpu_time_ratio")
}

// BenchmarkFigure2eFFT reports the same trend for fft.
func BenchmarkFigure2eFFT(b *testing.B) {
	var g *harness.Grid
	for i := 0; i < b.N; i++ {
		g = figureGrid(b, "fft", dwarfs.Sizes())
	}
	b.ReportMetric(medianOf(b, g, "fft", "large", "i7-6700k")/medianOf(b, g, "fft", "large", "gtx1080"), "cpu/gpu_time_ratio")
}

// BenchmarkFigure3aSRAD reports the widening structured-grid gap.
func BenchmarkFigure3aSRAD(b *testing.B) {
	var g *harness.Grid
	for i := 0; i < b.N; i++ {
		g = figureGrid(b, "srad", dwarfs.Sizes())
	}
	tiny := medianOf(b, g, "srad", "tiny", "i7-6700k") / medianOf(b, g, "srad", "tiny", "gtx1080")
	large := medianOf(b, g, "srad", "large", "i7-6700k") / medianOf(b, g, "srad", "large", "gtx1080")
	b.ReportMetric(tiny, "cpu/gpu_ratio_tiny")
	b.ReportMetric(large, "cpu/gpu_ratio_large")
}

// BenchmarkFigure3bNW reports the AMD launch-overhead penalty.
func BenchmarkFigure3bNW(b *testing.B) {
	var g *harness.Grid
	for i := 0; i < b.N; i++ {
		g = figureGrid(b, "nw", dwarfs.Sizes())
	}
	b.ReportMetric(medianOf(b, g, "nw", "large", "r9-290x")/medianOf(b, g, "nw", "large", "gtx1080"), "amd/nvidia_time_ratio")
	b.ReportMetric(medianOf(b, g, "nw", "large", "i7-6700k")/medianOf(b, g, "nw", "large", "gtx1080"), "cpu/nvidia_time_ratio")
}

// BenchmarkFigure4aGEM regenerates the single-size gem panel.
func BenchmarkFigure4aGEM(b *testing.B) {
	var g *harness.Grid
	for i := 0; i < b.N; i++ {
		g = figureGrid(b, "gem", []string{dwarfs.SizeTiny})
	}
	b.ReportMetric(medianOf(b, g, "gem", "tiny", "i7-6700k")/medianOf(b, g, "gem", "tiny", "gtx1080"), "cpu/gpu_time_ratio")
}

// BenchmarkFigure4bNQueens regenerates the single-size nqueens panel.
func BenchmarkFigure4bNQueens(b *testing.B) {
	var g *harness.Grid
	for i := 0; i < b.N; i++ {
		g = figureGrid(b, "nqueens", []string{dwarfs.SizeTiny})
	}
	b.ReportMetric(medianOf(b, g, "nqueens", "tiny", "i7-6700k")/medianOf(b, g, "nqueens", "tiny", "gtx1080"), "cpu/gpu_time_ratio")
}

// BenchmarkFigure4cHMM regenerates the single-size hmm panel.
func BenchmarkFigure4cHMM(b *testing.B) {
	var g *harness.Grid
	for i := 0; i < b.N; i++ {
		g = figureGrid(b, "hmm", []string{dwarfs.SizeTiny})
	}
	b.ReportMetric(medianOf(b, g, "hmm", "tiny", "i7-6700k")/medianOf(b, g, "hmm", "tiny", "gtx1080"), "cpu/gpu_time_ratio")
}

// BenchmarkFigure5Energy regenerates the energy comparison (i7-6700K RAPL
// vs GTX 1080 NVML, large size) and reports the crc exception alongside a
// representative vector benchmark.
func BenchmarkFigure5Energy(b *testing.B) {
	benches := []string{"kmeans", "lud", "csr", "fft", "dwt", "gem", "srad", "crc"}
	var g *harness.Grid
	for i := 0; i < b.N; i++ {
		g = &harness.Grid{}
		for _, bench := range benches {
			sizes := []string{dwarfs.SizeLarge}
			sub, err := harness.RunGrid(context.Background(), suite.New(), harness.GridSpec{
				Benchmarks: []string{bench},
				Sizes:      sizes,
				Devices:    []string{"i7-6700k", "gtx1080"},
				Options:    benchGridOpts(),
			})
			if err != nil {
				b.Fatal(err)
			}
			g.Merge(sub)
		}
	}
	srad := g.Find("srad", "large", "i7-6700k").Energy.Median / g.Find("srad", "large", "gtx1080").Energy.Median
	crc := g.Find("crc", "large", "i7-6700k").Energy.Median / g.Find("crc", "large", "gtx1080").Energy.Median
	b.ReportMetric(srad, "srad_cpu/gpu_energy_ratio")
	b.ReportMetric(crc, "crc_cpu/gpu_energy_ratio")
}

// ----- substrate micro-benchmarks -----

// BenchmarkKernelEnqueueSimulated measures the cost of one simulate-only
// kernel enqueue (profile + model evaluation).
func BenchmarkKernelEnqueueSimulated(b *testing.B) {
	dev, err := opencl.LookupDevice("gtx1080")
	if err != nil {
		b.Fatal(err)
	}
	ctx, _ := opencl.NewContext(dev)
	q, _ := opencl.NewQueue(ctx, dev)
	q.SetSimulateOnly(true)
	k := &opencl.Kernel{
		Name: "noop",
		Fn:   func(wi *opencl.Item) {},
		Profile: func(n opencl.NDRange) *sim.KernelProfile {
			return &sim.KernelProfile{
				Name: "noop", WorkItems: n.TotalItems(), FlopsPerItem: 1,
				LoadBytesPerItem: 4, WorkingSetBytes: 1 << 20,
				Pattern: cache.Streaming, Vectorizable: true,
			}
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.EnqueueNDRange(k, opencl.NDR1(1<<16, 64)); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 0 {
			q.DrainEvents()
		}
	}
}

// BenchmarkKernelExecuteFunctional measures real work-item dispatch
// throughput of the host execution engine.
func BenchmarkKernelExecuteFunctional(b *testing.B) {
	dev, _ := opencl.LookupDevice("i7-6700k")
	ctx, _ := opencl.NewContext(dev)
	q, _ := opencl.NewQueue(ctx, dev)
	const n = 1 << 16
	data := opencl.Data[float32](opencl.NewBuffer[float32](ctx, "x", n))
	k := &opencl.Kernel{
		Name: "scale",
		Fn:   func(wi *opencl.Item) { data[wi.GlobalID(0)] *= 1.0000001 },
		Profile: func(ndr opencl.NDRange) *sim.KernelProfile {
			return &sim.KernelProfile{
				Name: "scale", WorkItems: ndr.TotalItems(), FlopsPerItem: 1,
				LoadBytesPerItem: 4, StoreBytesPerItem: 4, WorkingSetBytes: 4 * n,
				Pattern: cache.Streaming, Vectorizable: true,
			}
		},
	}
	b.SetBytes(8 * n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.EnqueueNDRange(k, opencl.NDR1(n, 256)); err != nil {
			b.Fatal(err)
		}
		q.DrainEvents()
	}
}

// BenchmarkCacheResolve measures the analytical hierarchy model.
func BenchmarkCacheResolve(b *testing.B) {
	spec, _ := sim.Lookup("i7-6700k")
	h := spec.Hierarchy()
	req := cache.Request{TotalBytes: 1 << 24, WorkingSetBytes: 12 << 20, Pattern: cache.Stencil, TemporalReuse: 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Resolve(req)
	}
}

// BenchmarkTraceCache measures the set-associative LRU simulator.
func BenchmarkTraceCache(b *testing.B) {
	c := cache.NewSetAssoc("L1", 32<<10, 8, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i*64) & (1<<20 - 1))
	}
}

// BenchmarkNoiseSample measures the lognormal sampling path.
func BenchmarkNoiseSample(b *testing.B) {
	spec, _ := sim.Lookup("k20m")
	no := sim.NewNoise(spec, "bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		no.Sample(1e6, 100)
	}
}

// BenchmarkModelKernelTime measures one device-model evaluation.
func BenchmarkModelKernelTime(b *testing.B) {
	spec, _ := sim.Lookup("gtx1080")
	model := sim.NewModel(spec)
	p := &sim.KernelProfile{
		Name: "k", WorkItems: 1 << 20, FlopsPerItem: 30,
		LoadBytesPerItem: 24, StoreBytesPerItem: 4,
		WorkingSetBytes: 48 << 20, Pattern: cache.Stencil,
		TemporalReuse: 0.5, Vectorizable: true,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.KernelTime(p)
	}
}
