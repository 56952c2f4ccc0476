package harness

import (
	"context"

	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/opencl"
	"opendwarfs/internal/store"
	"opendwarfs/internal/suite"
)

func device(t *testing.T, id string) *opencl.Device {
	t.Helper()
	d, err := opencl.LookupDevice(id)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func quickOpts() Options {
	o := DefaultOptions()
	o.Samples = 10
	return o
}

func TestRunFunctionalVerified(t *testing.T) {
	reg := suite.New()
	b, err := reg.Get("kmeans")
	if err != nil {
		t.Fatal(err)
	}
	m, err := Run(context.Background(), b, "tiny", device(t, "i7-6700k"), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !m.Functional || !m.Verified {
		t.Fatalf("tiny kmeans should run functionally and verify: %+v", m)
	}
	if len(m.KernelNs) != 10 {
		t.Fatalf("%d samples, want 10", len(m.KernelNs))
	}
	if m.Kernel.Mean <= 0 || m.Energy.Mean <= 0 {
		t.Fatal("no kernel time or energy recorded")
	}
	if m.Iterations < 2 {
		t.Fatalf("a microsecond kernel must loop many times to cover 2 s, got %d", m.Iterations)
	}
	if m.Counters.Values == nil || m.Counters.IPC <= 0 {
		t.Fatal("counters not derived")
	}
	if m.FootprintBytes <= 0 {
		t.Fatal("footprint not recorded")
	}
}

func TestRunSimulateOnlyAboveBudget(t *testing.T) {
	reg := suite.New()
	b, _ := reg.Get("nqueens")
	opt := quickOpts()
	m, err := Run(context.Background(), b, "tiny", device(t, "gtx1080"), opt) // n=18: huge op count
	if err != nil {
		t.Fatal(err)
	}
	if m.Functional {
		t.Fatal("n=18 nqueens must not execute functionally under the default budget")
	}
	if m.Kernel.Mean <= 0 {
		t.Fatal("simulate-only run must still produce timing")
	}
}

// Simulate-only rows allocate no buffer backing and draw no dataset:
// preparing dwt, lud and hmm at large declares their full footprints but
// allocates well under a MiB each.
func TestPrepareSimulateOnlyAllocatesNoBuffers(t *testing.T) {
	reg := suite.New()
	for _, row := range []struct {
		bench     string
		footprint int64
	}{
		{"dwt", 79847424},
		{"lud", 67108864},
		{"hmm", 33955968},
	} {
		b, err := reg.Get(row.bench)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := Prepare(context.Background(), b, "large", DefaultOptions())
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if p.Functional || p.FootprintBytes != row.footprint {
			t.Fatalf("%s/large: Functional %v, footprint %d; want simulate-only with %d",
				row.bench, p.Functional, p.FootprintBytes, row.footprint)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s/large: Prepare allocated %d B, want < 1 MiB", row.bench, alloc)
		}
	}
}

// A functional row allocates what its execution needs and little more:
// nw/large its one DP matrix (its reference buffer is declared but never
// backed, and Verify keeps two rows), srad/large eight grid planes (the
// input image, six buffers and the J Verify replays; the replay keeps
// srad1's output for two rows). Each may add 4 MiB of smaller
// allocations.
func TestPrepareAllocatesOnlyWhatRuns(t *testing.T) {
	reg := suite.New()
	for _, row := range []struct {
		bench string
		bytes uint64
	}{
		{"nw", 4097 * 4097 * 4},
		{"srad", 8 * 2048 * 1024 * 4},
	} {
		b, err := reg.Get(row.bench)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := Prepare(context.Background(), b, "large", DefaultOptions())
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Functional || !p.Verified {
			t.Fatalf("%s/large: Functional %v, Verified %v; want both", row.bench, p.Functional, p.Verified)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= row.bytes+4<<20 {
			t.Errorf("%s/large: Prepare allocated %d B, want < %d B + 4 MiB", row.bench, alloc, row.bytes)
		}
	}
}

func TestRunEveryBenchmarkTinyFunctional(t *testing.T) {
	// Every dwarf except nqueens (n=18) must run functionally and verify
	// at the tiny size on a CPU device.
	reg := suite.New()
	dev := device(t, "i7-6700k")
	for _, b := range reg.All() {
		if b.Name() == "nqueens" {
			continue
		}
		m, err := Run(context.Background(), b, "tiny", dev, quickOpts())
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		if !m.Verified {
			t.Errorf("%s tiny not verified (ops budget too small?)", b.Name())
		}
	}
}

func TestRunRejectsBadOptions(t *testing.T) {
	reg := suite.New()
	b, _ := reg.Get("crc")
	if _, err := Run(context.Background(), b, "tiny", device(t, "i7-6700k"), Options{}); err == nil {
		t.Fatal("zero options accepted")
	}
	if _, err := Run(context.Background(), b, "gigantic", device(t, "i7-6700k"), quickOpts()); err == nil {
		t.Fatal("bad size accepted")
	}
}

func TestSamplesVaryButStayPositive(t *testing.T) {
	reg := suite.New()
	b, _ := reg.Get("csr")
	m, err := Run(context.Background(), b, "small", device(t, "k20m"), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	allEqual := true
	for i, v := range m.KernelNs {
		if v <= 0 {
			t.Fatal("non-positive sample")
		}
		if i > 0 && v != m.KernelNs[0] {
			allEqual = false
		}
	}
	if allEqual {
		t.Fatal("noise model produced identical samples")
	}
}

func TestMeasurementDeterministic(t *testing.T) {
	reg := suite.New()
	b, _ := reg.Get("fft")
	a, err := Run(context.Background(), b, "tiny", device(t, "titanx"), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	c, err := Run(context.Background(), b, "tiny", device(t, "titanx"), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.KernelNs {
		if a.KernelNs[i] != c.KernelNs[i] {
			t.Fatal("same-seed measurements differ — reproducibility broken")
		}
	}
}

func TestRecords(t *testing.T) {
	reg := suite.New()
	b, _ := reg.Get("crc")
	m, err := Run(context.Background(), b, "tiny", device(t, "i7-6700k"), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	recs := m.Records()
	if len(recs) != 2*len(m.KernelNs) {
		t.Fatalf("%d records, want %d", len(recs), 2*len(m.KernelNs))
	}
	if recs[0].Region != "kernel" || recs[1].Region != "transfer" {
		t.Fatal("record regions wrong")
	}
	if recs[0].Counters["PAPI_TOT_INS"] <= 0 {
		t.Fatal("counters missing from records")
	}
}

func TestRunGridSelection(t *testing.T) {
	reg := suite.New()
	g, err := RunGrid(context.Background(), reg, GridSpec{
		Benchmarks: []string{"csr", "crc"},
		Sizes:      []string{"tiny", "small"},
		Devices:    []string{"i7-6700k", "gtx1080"},
		Options:    quickOpts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Measurements) != 2*2*2 {
		t.Fatalf("%d cells, want 8", len(g.Measurements))
	}
	if m := g.Find("csr", "tiny", "gtx1080"); m == nil {
		t.Fatal("Find failed")
	}
	if m := g.Find("nope", "tiny", "gtx1080"); m != nil {
		t.Fatal("Find invented a cell")
	}
	if got := len(g.ByBenchmark("crc")); got != 4 {
		t.Fatalf("ByBenchmark returned %d, want 4", got)
	}
}

func TestRunGridSizeFilterUnsupportedBySelection(t *testing.T) {
	// nqueens supports only "tiny"; with nqueens as the whole selection,
	// asking for "large" can match nothing and must fail naming the valid
	// sizes — not return a silently empty grid. (When other selected
	// benchmarks do support the size, it narrows their rows instead; see
	// TestUnknownSizeAndDeviceFailLoudly.)
	reg := suite.New()
	_, err := RunGrid(context.Background(), reg, GridSpec{
		Benchmarks: []string{"nqueens"},
		Sizes:      []string{"large"},
		Devices:    []string{"i7-6700k"},
		Options:    quickOpts(),
	})
	if err == nil {
		t.Fatal("size unsupported by every selected benchmark accepted silently")
	}
	if !strings.Contains(err.Error(), `"large"`) || !strings.Contains(err.Error(), "tiny") {
		t.Fatalf("error %q does not name the bad size and the valid ones", err)
	}
}

func TestRunGridUnknownNames(t *testing.T) {
	reg := suite.New()
	if _, err := RunGrid(context.Background(), reg, GridSpec{Benchmarks: []string{"zzz"}, Options: quickOpts()}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := RunGrid(context.Background(), reg, GridSpec{Devices: []string{"zzz"}, Options: quickOpts()}); err == nil {
		t.Fatal("unknown device accepted")
	}
}

func TestPrepareMeasureMatchesRun(t *testing.T) {
	// The split phases composed by hand must reproduce Run exactly, and
	// one Preparation must be reusable across devices.
	reg := suite.New()
	b, _ := reg.Get("kmeans")
	opt := quickOpts()
	p, err := Prepare(context.Background(), b, "tiny", opt)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Verified || p.TotalOps <= 0 || p.KernelLaunches <= 0 {
		t.Fatalf("preparation incomplete: %+v", p)
	}
	for _, id := range []string{"i7-6700k", "gtx1080"} {
		got, err := p.Measure(context.Background(), device(t, id), opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(context.Background(), b, "tiny", device(t, id), opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Prepare+Measure differs from Run", id)
		}
	}
}

func TestPrepCacheSharesOnePreparation(t *testing.T) {
	// Concurrent lookups of the same key must run Prepare once and hand
	// every caller the same *Preparation.
	reg := suite.New()
	b, _ := reg.Get("crc")
	c := newPrepCache(nil, gridMetrics{})
	const callers = 8
	preps := make([]*Preparation, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			p, err := c.prepare(context.Background(), b, "tiny", quickOpts())
			if err != nil {
				t.Error(err)
				return
			}
			preps[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if preps[i] != preps[0] {
			t.Fatal("cache returned distinct preparations for one key")
		}
	}
	if c.len() != 1 {
		t.Fatalf("%d cache entries, want 1", c.len())
	}
}

// gridSpecForWorkers builds a small mixed grid (functional and
// simulate-only rows) for the determinism and race tests.
func gridSpecForWorkers(workers int) GridSpec {
	return GridSpec{
		Benchmarks: []string{"crc", "csr", "fft", "nqueens"},
		Sizes:      []string{"tiny", "small"},
		Devices:    []string{"i7-6700k", "gtx1080", "k20m", "r9-290x"},
		Options:    quickOpts(),
		Workers:    workers,
	}
}

func TestRunGridParallelDeterminism(t *testing.T) {
	// A parallel grid must be cell-for-cell identical to a sequential
	// one: noise is seeded per cell, never by run order.
	reg := suite.New()
	seq, err := RunGrid(context.Background(), reg, gridSpecForWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunGrid(context.Background(), reg, gridSpecForWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	if seq.Cells() != par.Cells() {
		t.Fatalf("cell counts differ: %d vs %d", seq.Cells(), par.Cells())
	}
	for i, a := range seq.Measurements {
		b := par.Measurements[i]
		if a.Benchmark != b.Benchmark || a.Size != b.Size || a.Device.ID != b.Device.ID {
			t.Fatalf("cell %d: grid order not preserved (%s/%s/%s vs %s/%s/%s)",
				i, a.Benchmark, a.Size, a.Device.ID, b.Benchmark, b.Size, b.Device.ID)
		}
		if a.Kernel.Median != b.Kernel.Median {
			t.Fatalf("cell %d %s/%s/%s: Kernel.Median %v != %v", i, a.Benchmark, a.Size, a.Device.ID, a.Kernel.Median, b.Kernel.Median)
		}
		if !reflect.DeepEqual(a.EnergyJ, b.EnergyJ) {
			t.Fatalf("cell %d %s/%s/%s: EnergyJ samples differ", i, a.Benchmark, a.Size, a.Device.ID)
		}
		if !reflect.DeepEqual(a.Counters, b.Counters) {
			t.Fatalf("cell %d %s/%s/%s: Counters differ", i, a.Benchmark, a.Size, a.Device.ID)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("cell %d %s/%s/%s: measurements differ", i, a.Benchmark, a.Size, a.Device.ID)
		}
	}
}

func TestRunGridWorkersRace(t *testing.T) {
	// Exercises the concurrent path under -race: 8 workers on one small
	// grid, functional rows included.
	reg := suite.New()
	g, err := RunGrid(context.Background(), reg, gridSpecForWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	// 3 benchmarks × 2 sizes × 4 devices + nqueens tiny × 4.
	if want := 3*2*4 + 4; g.Cells() != want {
		t.Fatalf("%d cells, want %d", g.Cells(), want)
	}
}

func TestRunGridParallelErrorPropagates(t *testing.T) {
	reg := suite.New()
	spec := gridSpecForWorkers(8)
	spec.Options.Samples = 0
	if _, err := RunGrid(context.Background(), reg, spec); err == nil {
		t.Fatal("invalid options accepted by parallel grid")
	}
}

func TestRunGridSharesPreparationAcrossDevices(t *testing.T) {
	// Every device of one row must see the same kernel profile objects —
	// proof the row was prepared once, not 15 times.
	reg := suite.New()
	g, err := RunGrid(context.Background(), reg, GridSpec{
		Benchmarks: []string{"srad"},
		Sizes:      []string{"tiny"},
		Devices:    []string{"i7-6700k", "gtx1080", "k20m"},
		Options:    quickOpts(),
		Workers:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	first := g.Measurements[0]
	for _, m := range g.Measurements[1:] {
		if len(m.Profiles) != len(first.Profiles) {
			t.Fatal("profile counts differ across devices")
		}
		for i := range m.Profiles {
			if m.Profiles[i] != first.Profiles[i] {
				t.Fatal("devices hold distinct profile objects — preparation not shared")
			}
		}
	}
}

// panicBench panics during instantiation, standing in for any benchmark
// bug that escapes as a panic rather than an error.
type panicBench struct{}

func (panicBench) Name() string                 { return "panicky" }
func (panicBench) Dwarf() string                { return "Chaos" }
func (panicBench) Sizes() []string              { return []string{"tiny"} }
func (panicBench) ScaleParameter(string) string { return "" }
func (panicBench) ArgString(string) string      { return "" }
func (panicBench) New(string, int64) (dwarfs.Instance, error) {
	panic("boom")
}

func TestRunGridConvertsWorkerPanicsToErrors(t *testing.T) {
	// A panic on a worker goroutine must surface as the cell's error,
	// not abort the process.
	reg, err := dwarfs.NewRegistry(panicBench{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		_, err := RunGrid(context.Background(), reg, GridSpec{
			Devices: []string{"i7-6700k", "gtx1080"},
			Options: quickOpts(),
			Workers: workers,
		})
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("workers=%d: want panic converted to error, got %v", workers, err)
		}
	}
}

// TestCellErrorReturnsPartialGrid: a run stopped by a cell error hands
// back the cells it finished, each already in the store, as a cancelled
// run does — from RunGrid and on Stream's grid_done alike. At one worker
// the two crc cells complete before the panicking row is reached.
func TestCellErrorReturnsPartialGrid(t *testing.T) {
	crc, err := suite.New().Get("crc")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := dwarfs.NewRegistry(crc, panicBench{})
	if err != nil {
		t.Fatal(err)
	}
	spec := func(t *testing.T) (GridSpec, *store.Store) {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return GridSpec{
			Sizes:   []string{"tiny"},
			Devices: []string{"i7-6700k", "gtx1080"},
			Options: quickOpts(),
			Workers: 1,
			Store:   st,
		}, st
	}
	check := func(t *testing.T, g *Grid, err error, st *store.Store) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("run error %v, want the panicked cell's", err)
		}
		if g == nil {
			t.Fatal("a run stopped by a cell error returned no grid")
		}
		if g.Cells() != 2 || g.StoreMisses != 2 || g.StoreHits != 0 || g.Elapsed <= 0 {
			t.Fatalf("grid: %d cells, %d misses, %d hits, elapsed %v; want 2, 2, 0, > 0",
				g.Cells(), g.StoreMisses, g.StoreHits, g.Elapsed)
		}
		for _, m := range g.Measurements {
			if m.Benchmark != "crc" {
				t.Fatalf("grid holds %s/%s/%s, want crc cells only", m.Benchmark, m.Size, m.Device.ID)
			}
			if _, ok := st.Get(CellKey(m.Benchmark, m.Size, m.Device, quickOpts())); !ok {
				t.Fatalf("cell %s/%s/%s is in the grid but not in the store", m.Benchmark, m.Size, m.Device.ID)
			}
		}
		if cells, _ := storeRecords(t, st); cells != 2 {
			t.Fatalf("store holds %d cells, want 2", cells)
		}
	}

	t.Run("RunGrid", func(t *testing.T) {
		s, st := spec(t)
		g, err := RunGrid(context.Background(), reg, s)
		check(t, g, err, st)
	})
	t.Run("Stream", func(t *testing.T) {
		s, st := spec(t)
		events, err := Stream(context.Background(), reg, s)
		if err != nil {
			t.Fatal(err)
		}
		var done Event
		for ev := range events {
			if ev.Kind == EventGridDone {
				done = ev
			}
		}
		if done.Done != 2 || done.Misses != 2 || done.Hits != 0 || done.Elapsed <= 0 {
			t.Fatalf("grid_done: done %d, misses %d, hits %d, elapsed %v; want 2, 2, 0, > 0",
				done.Done, done.Misses, done.Hits, done.Elapsed)
		}
		check(t, done.Grid, done.Err, st)
	})
}

func TestDispatchOrderCoversAllCells(t *testing.T) {
	for _, tc := range []struct{ cells, devices, workers int }{
		{24, 4, 1}, {24, 4, 8}, {15, 15, 4}, {7, 1, 4},
	} {
		order := dispatchOrder(tc.cells, tc.devices, tc.workers)
		if len(order) != tc.cells {
			t.Fatalf("%+v: %d entries, want %d", tc, len(order), tc.cells)
		}
		seen := make([]bool, tc.cells)
		for _, i := range order {
			if i < 0 || i >= tc.cells || seen[i] {
				t.Fatalf("%+v: invalid or duplicate index %d", tc, i)
			}
			seen[i] = true
		}
	}
	// Multi-worker order must lead with distinct rows so their prepares
	// overlap: the first len(order)/devices entries are column 0.
	order := dispatchOrder(24, 4, 8)
	for r := 0; r < 6; r++ {
		if order[r] != r*4 {
			t.Fatalf("device-major order broken at %d: %v", r, order[:6])
		}
	}
}

func TestGridCellsAndAllocFreeLookups(t *testing.T) {
	reg := suite.New()
	g, err := RunGrid(context.Background(), reg, GridSpec{
		Benchmarks: []string{"crc"},
		Sizes:      []string{"tiny"},
		Devices:    []string{"i7-6700k", "gtx1080"},
		Options:    quickOpts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.Cells() != 2 {
		t.Fatalf("Cells() = %d, want 2", g.Cells())
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if g.Find("nope", "tiny", "i7-6700k") != nil {
			t.Error("found phantom cell")
		}
		if g.ByBenchmark("nope") != nil {
			t.Error("phantom benchmark measurements")
		}
	}); allocs != 0 {
		t.Fatalf("miss-path lookups allocate %.0f times", allocs)
	}
	if got := len(g.ByBenchmark("crc")); got != 2 {
		t.Fatalf("ByBenchmark returned %d, want 2", got)
	}
}

func TestGridMerge(t *testing.T) {
	reg := suite.New()
	opts := quickOpts()
	a, err := RunGrid(context.Background(), reg, GridSpec{Benchmarks: []string{"crc"}, Sizes: []string{"tiny"}, Devices: []string{"i7-6700k"}, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunGrid(context.Background(), reg, GridSpec{Benchmarks: []string{"csr"}, Sizes: []string{"tiny"}, Devices: []string{"i7-6700k"}, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	a.Merge(b)
	if len(a.Measurements) != 2 {
		t.Fatal("merge failed")
	}
}
