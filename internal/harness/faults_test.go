package harness

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"opendwarfs/internal/faults"
	"opendwarfs/internal/sim"
	"opendwarfs/internal/store"
	"opendwarfs/internal/suite"
)

// funcInjector adapts a function to faults.Injector for bespoke scenarios.
type funcInjector func(bench, size, device string, attempt int) faults.Decision

func (f funcInjector) Decide(bench, size, device string, attempt int) faults.Decision {
	return f(bench, size, device, attempt)
}

func TestGridTransientRetrySucceeds(t *testing.T) {
	spec := GridSpec{
		Benchmarks: []string{"crc"}, Sizes: []string{"tiny"},
		Devices: []string{"i7-6700k", "gtx1080"},
		Options: quickOpts(), Workers: 1,
		Retry: RetryPolicy{MaxAttempts: 3},
		Faults: funcInjector(func(bench, size, device string, attempt int) faults.Decision {
			// gtx1080 fails its first attempt only.
			return faults.Decision{Transient: device == "gtx1080" && attempt == 1}
		}),
	}
	events, err := Stream(context.Background(), suite.New(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var retriesSeen []Event
	var g *Grid
	for ev := range events {
		if ev.Kind == EventCellRetry {
			retriesSeen = append(retriesSeen, ev)
		}
		if ev.Kind == EventGridDone {
			g = ev.Grid
			if ev.Err != nil {
				t.Fatalf("grid_done error: %v", ev.Err)
			}
			if ev.Retries != 1 || ev.Failed != 0 {
				t.Fatalf("grid_done counters retries=%d failed=%d, want 1, 0", ev.Retries, ev.Failed)
			}
		}
	}
	if len(retriesSeen) != 1 {
		t.Fatalf("%d cell_retry events, want 1", len(retriesSeen))
	}
	re := retriesSeen[0]
	if re.Device != "gtx1080" || re.Attempt != 1 || re.Reason != "transient fault" {
		t.Fatalf("unexpected retry event: %+v", re)
	}
	if g.Cells() != 2 || len(g.Failed) != 0 || g.Retries != 1 {
		t.Fatalf("grid cells=%d failed=%d retries=%d, want 2, 0, 1", g.Cells(), len(g.Failed), g.Retries)
	}
}

func TestGridExhaustedRetriesFailCellNotRun(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	spec := GridSpec{
		Benchmarks: []string{"crc", "fft"}, Sizes: []string{"tiny"},
		Devices: []string{"i7-6700k"},
		Options: quickOpts(), Workers: 1, Store: st,
		Retry: RetryPolicy{MaxAttempts: 3},
		Faults: funcInjector(func(bench, size, device string, attempt int) faults.Decision {
			return faults.Decision{Transient: bench == "fft"} // never recovers
		}),
	}
	g, err := RunGrid(context.Background(), suite.New(), spec)
	if err != nil {
		t.Fatalf("fault-class failures must not abort the grid: %v", err)
	}
	if g.Cells() != 1 || g.Measurements[0].Benchmark != "crc" {
		t.Fatalf("want exactly the crc cell measured, got %d cells", g.Cells())
	}
	if len(g.Failed) != 1 {
		t.Fatalf("%d failed cells, want 1", len(g.Failed))
	}
	f := g.Failed[0]
	if f.Benchmark != "fft" || f.Attempts != 3 || f.Reason != "transient fault" {
		t.Fatalf("unexpected failure record: %+v", f)
	}
	if g.Retries != 2 {
		t.Fatalf("retries=%d, want 2 (attempts 1 and 2 retried)", g.Retries)
	}
	// Zero failed cells leak into the store: only crc persisted. Both
	// rows were prepared before any attempt, so both preparations were.
	if cells, preps := storeRecords(t, st); g.StoreMisses != 1 || cells != 1 || preps != 2 {
		t.Fatalf("store misses=%d, %d cells, %d preparations; want 1, 1, 2", g.StoreMisses, cells, preps)
	}
	sg, err := GridFromStore(st)
	if err != nil {
		t.Fatal(err)
	}
	if sg.Cells() != 1 || sg.Measurements[0].Benchmark != "crc" {
		t.Fatalf("store grid holds %d cells, want the single crc cell", sg.Cells())
	}
}

func TestGridDeviceDropQuarantines(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	plan := &faults.Plan{Seed: 1, Drop: []string{"k20m"}}
	spec := GridSpec{
		Benchmarks: []string{"crc", "fft"}, Sizes: []string{"tiny"},
		Devices: []string{"i7-6700k", "k20m"},
		Options: quickOpts(), Workers: 2, Store: st,
		Retry:  RetryPolicy{MaxAttempts: 4},
		Faults: plan,
	}
	events, err := Stream(context.Background(), suite.New(), spec)
	if err != nil {
		t.Fatal(err)
	}
	quarEvents := 0
	var g *Grid
	for ev := range events {
		switch ev.Kind {
		case EventDeviceQuarantined:
			quarEvents++
			if ev.Device != "k20m" || ev.Reason != "device down" {
				t.Fatalf("unexpected quarantine event: %+v", ev)
			}
		case EventCellRetry:
			t.Fatalf("a dropped device must fail fast, not retry: %+v", ev)
		case EventGridDone:
			g = ev.Grid
		}
	}
	if quarEvents != 1 {
		t.Fatalf("%d device_quarantined events, want exactly 1", quarEvents)
	}
	if !reflect.DeepEqual(g.Quarantined, []string{"k20m"}) {
		t.Fatalf("Quarantined = %v, want [k20m]", g.Quarantined)
	}
	if g.Cells() != 2 || len(g.Failed) != 2 {
		t.Fatalf("cells=%d failed=%d, want 2 measured (i7) + 2 failed (k20m)", g.Cells(), len(g.Failed))
	}
	for _, f := range g.Failed {
		if f.Device != "k20m" || f.Reason != "device down" || f.Attempts != 1 {
			t.Fatalf("unexpected failure record: %+v", f)
		}
	}
	// No k20m cell reached the store.
	for _, rec := range st.Records() {
		if rec.Device == "k20m" {
			t.Fatalf("failed device's cell leaked into the store: %+v", rec)
		}
	}
}

// Acceptance criterion: same fault seed ⇒ identical per-cell retry and
// failure sequences and an identical final grid at any worker count.
func TestChaosDeterminismAcrossWorkers(t *testing.T) {
	plan := &faults.Plan{Seed: 42, TransientRate: 0.3, Drop: []string{"titanx"}, StragglerRate: 0.2, PowerDropoutRate: 0.2}
	collect := func(workers int) (map[string][]string, *Grid) {
		spec := GridSpec{
			Benchmarks: []string{"crc", "fft", "nw"}, Sizes: []string{"tiny"},
			Devices: []string{"i7-6700k", "gtx1080", "titanx"},
			Options: quickOpts(), Workers: workers,
			Retry:  RetryPolicy{MaxAttempts: 4},
			Faults: plan,
		}
		events, err := Stream(context.Background(), suite.New(), spec)
		if err != nil {
			t.Fatal(err)
		}
		perCell := map[string][]string{}
		var g *Grid
		for ev := range events {
			switch ev.Kind {
			case EventGridDone:
				g = ev.Grid
			case EventCellStart:
				// claim order is scheduling-dependent; the attempt
				// sequences below are what must be invariant
			default:
				key := ev.Benchmark + "/" + ev.Size + "/" + ev.Device
				perCell[key] = append(perCell[key], fmt.Sprintf("%s#%d:%s", ev.Kind, ev.Attempt, ev.Reason))
			}
		}
		return perCell, g
	}
	seq1, g1 := collect(1)
	seq4, g4 := collect(4)
	if !reflect.DeepEqual(seq1, seq4) {
		t.Fatalf("per-cell event sequences differ between 1 and 4 workers:\n%v\nvs\n%v", seq1, seq4)
	}
	if !reflect.DeepEqual(g1.Measurements, g4.Measurements) {
		t.Fatalf("measurements differ between worker counts")
	}
	if !reflect.DeepEqual(g1.Failed, g4.Failed) {
		t.Fatalf("failed cells differ: %v vs %v", g1.Failed, g4.Failed)
	}
	if !reflect.DeepEqual(g1.Quarantined, g4.Quarantined) || g1.Retries != g4.Retries {
		t.Fatalf("quarantine/retry counters differ: %v/%d vs %v/%d",
			g1.Quarantined, g1.Retries, g4.Quarantined, g4.Retries)
	}
	if len(g1.Measurements) == 0 {
		t.Fatal("chaos grid measured nothing — scenario too harsh for the test to mean anything")
	}
}

func TestAttemptTimeoutIsRetryable(t *testing.T) {
	spec := GridSpec{
		Benchmarks: []string{"crc"}, Sizes: []string{"tiny"},
		Devices: []string{"i7-6700k"},
		Options: quickOpts(), Workers: 1,
		Retry: RetryPolicy{MaxAttempts: 2, AttemptTimeout: 30 * time.Millisecond},
		Faults: funcInjector(func(bench, size, device string, attempt int) faults.Decision {
			return faults.Decision{Hang: attempt == 1}
		}),
	}
	events, err := Stream(context.Background(), suite.New(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var sawTimeoutRetry bool
	var g *Grid
	for ev := range events {
		if ev.Kind == EventCellRetry && ev.Reason == "attempt timeout" {
			sawTimeoutRetry = true
		}
		if ev.Kind == EventGridDone {
			g, err = ev.Grid, ev.Err
		}
	}
	if err != nil {
		t.Fatalf("grid error: %v", err)
	}
	if !sawTimeoutRetry {
		t.Fatal("no cell_retry with reason \"attempt timeout\"")
	}
	if g.Cells() != 1 || len(g.Failed) != 0 {
		t.Fatalf("cells=%d failed=%d after recovered timeout, want 1, 0", g.Cells(), len(g.Failed))
	}
}

// Parent cancellation during a hung attempt (and during backoff) is a
// cancellation, never a cell failure — errors.Is(err, context.Canceled)
// must hold through the whole retry machinery.
func TestCancellationDuringHangIsCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	spec := GridSpec{
		Benchmarks: []string{"crc"}, Sizes: []string{"tiny"},
		Devices: []string{"i7-6700k"},
		Options: quickOpts(), Workers: 1,
		Retry: RetryPolicy{MaxAttempts: 3},
		Faults: funcInjector(func(bench, size, device string, attempt int) faults.Decision {
			return faults.Decision{Hang: true} // no AttemptTimeout: only cancellation unblocks
		}),
	}
	g, err := RunGrid(ctx, suite.New(), spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
	if g == nil || len(g.Failed) != 0 || g.Cells() != 0 {
		t.Fatalf("cancelled hung cell must be neither measured nor failed: %+v", g)
	}
}

func TestCancellationDuringBackoffIsCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	spec := GridSpec{
		Benchmarks: []string{"crc"}, Sizes: []string{"tiny"},
		Devices: []string{"i7-6700k"},
		Options: quickOpts(), Workers: 1,
		Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Hour},
		Faults: funcInjector(func(bench, size, device string, attempt int) faults.Decision {
			return faults.Decision{Transient: true}
		}),
	}
	//lint:allow detrand test measures real cancellation latency
	start := time.Now()
	_, err := RunGrid(ctx, suite.New(), spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
	//lint:allow detrand test measures real cancellation latency
	if time.Since(start) > 10*time.Second {
		t.Fatal("backoff sleep ignored cancellation")
	}
}

func TestStragglerDilatesSamples(t *testing.T) {
	reg := suite.New()
	base := GridSpec{
		Benchmarks: []string{"crc"}, Sizes: []string{"tiny"},
		Devices: []string{"i7-6700k"}, Options: quickOpts(), Workers: 1,
	}
	clean, err := RunGrid(context.Background(), reg, base)
	if err != nil {
		t.Fatal(err)
	}
	slow := base
	slow.Faults = funcInjector(func(bench, size, device string, attempt int) faults.Decision {
		return faults.Decision{SlowFactor: 4}
	})
	g, err := RunGrid(context.Background(), reg, slow)
	if err != nil {
		t.Fatal(err)
	}
	want := 4 * clean.Measurements[0].Kernel.Median
	got := g.Measurements[0].Kernel.Median
	if got != want {
		t.Fatalf("straggler median %g, want exactly 4× clean (%g)", got, want)
	}
}

func TestPowerDropoutZeroesNVMLOnly(t *testing.T) {
	reg := suite.New()
	spec := GridSpec{
		Benchmarks: []string{"crc"}, Sizes: []string{"tiny"},
		Devices: []string{"i7-6700k", "gtx1080"}, // RAPL vs NVML band
		Options: quickOpts(), Workers: 1,
		Faults: funcInjector(func(bench, size, device string, attempt int) faults.Decision {
			return faults.Decision{PowerDropout: true}
		}),
	}
	g, err := RunGrid(context.Background(), reg, spec)
	if err != nil {
		t.Fatal(err)
	}
	cpu := g.Find("crc", "tiny", "i7-6700k")
	gpu := g.Find("crc", "tiny", "gtx1080")
	if cpu.Energy.Median <= 0 {
		t.Fatal("RAPL-metered cell lost its energy to an NVML dropout")
	}
	if gpu.Energy.Median != 0 {
		t.Fatalf("NVML-metered cell kept energy %g through a power dropout", gpu.Energy.Median)
	}
}

// A clean re-run against the same store must hit every cell the chaos run
// measured and measure exactly the cells it failed.
func TestCleanResweepBackfillsFailedCells(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := suite.New()
	chaos := GridSpec{
		Benchmarks: []string{"crc", "fft"}, Sizes: []string{"tiny"},
		Devices: []string{"i7-6700k", "gtx1080"},
		Options: quickOpts(), Workers: 1, Store: st,
		Faults: funcInjector(func(bench, size, device string, attempt int) faults.Decision {
			return faults.Decision{Transient: bench == "fft" && device == "gtx1080"}
		}),
	}
	g1, err := RunGrid(context.Background(), reg, chaos)
	if err != nil {
		t.Fatal(err)
	}
	if g1.Cells() != 3 || len(g1.Failed) != 1 {
		t.Fatalf("chaos run: cells=%d failed=%d, want 3, 1", g1.Cells(), len(g1.Failed))
	}
	clean := chaos
	clean.Faults = nil
	g2, err := RunGrid(context.Background(), reg, clean)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Cells() != 4 || len(g2.Failed) != 0 {
		t.Fatalf("clean re-run: cells=%d failed=%d, want 4, 0", g2.Cells(), len(g2.Failed))
	}
	if g2.StoreHits != 3 || g2.StoreMisses != 1 {
		t.Fatalf("clean re-run hits=%d misses=%d, want 3 hits + the backfilled failure", g2.StoreHits, g2.StoreMisses)
	}
}

func TestMergeFailuresAndQuarantine(t *testing.T) {
	m := func(bench, size, dev string) *Measurement {
		return &Measurement{Benchmark: bench, Size: size, Device: &sim.DeviceSpec{ID: dev}}
	}
	a := &Grid{
		Measurements: []*Measurement{m("crc", "tiny", "i7-6700k")},
		Failed: []FailedCell{
			{Benchmark: "fft", Size: "tiny", Device: "gtx1080", Attempts: 3, Reason: "transient fault"},
			{Benchmark: "nw", Size: "tiny", Device: "k20m", Attempts: 1, Reason: "device down"},
		},
		Quarantined: []string{"k20m"},
		Retries:     2,
	}
	b := &Grid{
		// fft/tiny/gtx1080 succeeded on the second run: supersedes a's failure.
		Measurements: []*Measurement{m("fft", "tiny", "gtx1080")},
		Failed: []FailedCell{
			// Same coordinate as a's k20m failure, newer record wins.
			{Benchmark: "nw", Size: "tiny", Device: "k20m", Attempts: 2, Reason: "device down"},
			{Benchmark: "crc", Size: "tiny", Device: "titanx", Attempts: 4, Reason: "transient fault"},
		},
		Quarantined: []string{"titanx", "k20m"},
		Retries:     3,
	}
	a.Merge(b)
	if a.Cells() != 2 {
		t.Fatalf("merged cells = %d, want 2", a.Cells())
	}
	want := []FailedCell{
		{Benchmark: "nw", Size: "tiny", Device: "k20m", Attempts: 2, Reason: "device down"},
		{Benchmark: "crc", Size: "tiny", Device: "titanx", Attempts: 4, Reason: "transient fault"},
	}
	if !reflect.DeepEqual(a.Failed, want) {
		t.Fatalf("merged failures = %v, want %v", a.Failed, want)
	}
	if !reflect.DeepEqual(a.Quarantined, []string{"k20m", "titanx"}) {
		t.Fatalf("merged quarantine = %v, want sorted union", a.Quarantined)
	}
	if a.Retries != 5 {
		t.Fatalf("merged retries = %d, want 5", a.Retries)
	}
}
