package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
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

// Parent cancellation during an attempt (and during backoff) is a
// cancellation, never a cell failure — errors.Is(err, context.Canceled)
// must hold through the whole retry machinery. The injector cancels the
// run from inside the first attempt and fails that attempt with a
// transient fault, which would otherwise be retried.
func TestCancellationDuringHangIsCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec := GridSpec{
		Benchmarks: []string{"crc"}, Sizes: []string{"tiny"},
		Devices: []string{"i7-6700k"},
		Options: quickOpts(), Workers: 1,
		Retry: RetryPolicy{MaxAttempts: 3},
		Faults: funcInjector(func(bench, size, device string, attempt int) faults.Decision {
			cancel()
			return faults.Decision{Transient: true}
		}),
	}
	g, err := RunGrid(ctx, suite.New(), spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
	if g == nil || len(g.Failed) != 0 || g.Cells() != 0 || g.Retries != 0 {
		t.Fatalf("cancelled cell must be neither measured, retried nor failed: %+v", g)
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

// Every event carries the run's five counters as of its own emission, so
// in emission order none of them ever runs backwards — dwarfserve copies
// each event's counters into a job's status head and SSE frame. The warm
// crc row makes Hits move beside Misses, and the dropped device emits
// device_quarantined between a cell's start and its failure.
func TestEventCountersNeverRunBackwards(t *testing.T) {
	for _, workers := range []int{1, 4} {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		spec := GridSpec{
			Benchmarks: []string{"crc", "fft", "nw"}, Sizes: []string{"tiny"},
			Devices: []string{"i7-6700k", "gtx1080", "k20m"},
			Options: quickOpts(), Workers: workers, Store: st,
		}
		warm := spec
		warm.Benchmarks = []string{"crc"}
		if _, err := RunGrid(context.Background(), suite.New(), warm); err != nil {
			t.Fatal(err)
		}
		spec.Retry = RetryPolicy{MaxAttempts: 3}
		spec.Faults = &faults.Plan{Seed: 42, TransientRate: 0.3, Drop: []string{"k20m"}}
		events, err := Stream(context.Background(), suite.New(), spec)
		if err != nil {
			t.Fatal(err)
		}
		names := [...]string{"done", "store_hits", "store_misses", "retries", "failed"}
		var last [len(names)]int
		var prev Event
		for ev := range events {
			cur := [len(names)]int{ev.Done, ev.Hits, ev.Misses, ev.Retries, ev.Failed}
			for i := range cur {
				if cur[i] < last[i] {
					t.Fatalf("workers=%d: %s ran backwards from %d to %d at %s %s/%s/%s",
						workers, names[i], last[i], cur[i], ev.Kind, ev.Benchmark, ev.Size, ev.Device)
				}
			}
			last, prev = cur, ev
		}
		if prev.Kind != EventGridDone || prev.Err != nil {
			t.Fatalf("workers=%d: stream ended with %s (%v)", workers, prev.Kind, prev.Err)
		}
		if prev.Hits == 0 || prev.Misses == 0 || prev.Retries == 0 || prev.Failed == 0 {
			t.Fatalf("workers=%d: scenario left a counter at zero: hits=%d misses=%d retries=%d failed=%d",
				workers, prev.Hits, prev.Misses, prev.Retries, prev.Failed)
		}
	}
}

// TestChaosStreamGolden pins the one-worker event stream of a chaos run:
// every event's kind, coordinate and counters, its attempt and reason,
// the stored bytes of every measurement it carries, and the final grid's
// failures, quarantines, retries and store counters. The plan mixes
// transient faults, a dropped device, stragglers and power dropouts: of
// nine cells, five are measured after four retries, one exhausts its
// three attempts and three sit on the dropped device. It runs once
// without a store, and twice over one store (cold, then warm), so the
// digest sees misses and hits too. Wall-clock fields are left out. A
// change to how a grid run is driven must leave both digests as they are.
func TestChaosStreamGolden(t *testing.T) {
	const (
		wantPlain  = "df297bd39e75e63c9ab2739237fd6e4b936a5fd31a90e4e0cba939d6b5627e1f"
		wantStored = "cbf8245f7e1edf35d008b9d20c0a0089b1601be7a82ff5e5e383840f5dfee7b5"
	)
	spec := GridSpec{
		Benchmarks: []string{"crc", "fft", "nw"}, Sizes: []string{"tiny"},
		Devices: []string{"i7-6700k", "gtx1080", "k20m"},
		Options: quickOpts(), Workers: 1,
		Retry: RetryPolicy{MaxAttempts: 3},
		Faults: &faults.Plan{
			Seed: 5, TransientRate: 0.4, Drop: []string{"k20m"},
			StragglerRate: 0.3, PowerDropoutRate: 0.5,
		},
	}
	digest := func(h hash.Hash, spec GridSpec) {
		events, err := Stream(context.Background(), suite.New(), spec)
		if err != nil {
			t.Fatal(err)
		}
		for ev := range events {
			fmt.Fprintf(h, "%s %s/%s/%s %d/%d %d/%d %d:%s %d/%d\n", ev.Kind,
				ev.Benchmark, ev.Size, ev.Device, ev.Done, ev.Total, ev.Hits, ev.Misses,
				ev.Attempt, ev.Reason, ev.Retries, ev.Failed)
			if ev.Measurement != nil {
				raw, err := EncodeMeasurement(ev.Measurement)
				if err != nil {
					t.Fatal(err)
				}
				h.Write(raw)
			}
			if ev.Kind == EventGridDone {
				if ev.Err != nil {
					t.Fatal(ev.Err)
				}
				g := ev.Grid
				fmt.Fprintf(h, "%+v %v %d %d/%d\n", g.Failed, g.Quarantined, g.Retries, g.StoreHits, g.StoreMisses)
			}
		}
	}

	h := sha256.New()
	digest(h, spec)
	if got := hex.EncodeToString(h.Sum(nil)); got != wantPlain {
		t.Errorf("chaos stream digest %s, want %s", got, wantPlain)
	}

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	spec.Store = st
	h = sha256.New()
	digest(h, spec)
	digest(h, spec)
	if got := hex.EncodeToString(h.Sum(nil)); got != wantStored {
		t.Errorf("stored chaos stream digest %s, want %s", got, wantStored)
	}
}
