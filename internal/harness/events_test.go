package harness

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"opendwarfs/internal/obs"
	"opendwarfs/internal/store"
	"opendwarfs/internal/suite"
)

// collectEvents drains a stream to completion, returning the per-kind
// event lists and the terminal event.
func collectEvents(t *testing.T, events <-chan Event) (starts, dones, hits []Event, terminal Event) {
	t.Helper()
	sawTerminal := false
	for ev := range events {
		switch ev.Kind {
		case EventCellStart:
			starts = append(starts, ev)
		case EventCellDone:
			dones = append(dones, ev)
		case EventStoreHit:
			hits = append(hits, ev)
		case EventGridDone:
			terminal = ev
			sawTerminal = true
		default:
			t.Fatalf("unknown event kind %q", ev.Kind)
		}
	}
	if !sawTerminal {
		t.Fatal("stream closed without a grid_done event")
	}
	return starts, dones, hits, terminal
}

func TestStreamEventSequence(t *testing.T) {
	reg := suite.New()
	spec := GridSpec{
		Benchmarks: []string{"crc", "fft"},
		Sizes:      []string{"tiny"},
		Devices:    []string{"i7-6700k", "gtx1080"},
		Options:    quickOpts(),
		Workers:    2,
	}
	events, err := Stream(context.Background(), reg, spec)
	if err != nil {
		t.Fatal(err)
	}
	starts, dones, hits, terminal := collectEvents(t, events)

	if len(starts) != 4 || len(dones) != 4 || len(hits) != 0 {
		t.Fatalf("got %d starts / %d dones / %d hits, want 4/4/0", len(starts), len(dones), len(hits))
	}
	seenDone := map[int]bool{}
	for _, ev := range dones {
		if ev.Total != 4 || ev.Done < 1 || ev.Done > 4 || seenDone[ev.Done] {
			t.Fatalf("bad completion counter %d/%d", ev.Done, ev.Total)
		}
		seenDone[ev.Done] = true
		if ev.Measurement == nil || ev.Measurement.Benchmark != ev.Benchmark ||
			ev.Measurement.Size != ev.Size || ev.Measurement.Device.ID != ev.Device {
			t.Fatalf("cell_done measurement missing or mislabelled: %+v", ev)
		}
		if ev.Elapsed <= 0 {
			t.Fatal("cell_done without timing")
		}
	}
	if terminal.Err != nil || terminal.Grid == nil {
		t.Fatalf("grid_done: err %v, grid %v", terminal.Err, terminal.Grid)
	}
	if terminal.Done != 4 || terminal.Total != 4 || terminal.Grid.Cells() != 4 {
		t.Fatalf("grid_done counters %d/%d over %d cells", terminal.Done, terminal.Total, terminal.Grid.Cells())
	}
	if terminal.Elapsed <= 0 || terminal.Grid.Elapsed != terminal.Elapsed {
		t.Fatal("grid_done timing missing or inconsistent with Grid.Elapsed")
	}

	// The streamed grid is the RunGrid grid: same cells, same values.
	direct, err := RunGrid(context.Background(), reg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(terminal.Grid.Measurements, direct.Measurements) {
		t.Fatal("streamed grid differs from RunGrid")
	}
}

func TestStreamStoreHitEvents(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := suite.New()
	spec := tinyStoreSpec(st)
	if _, err := RunGrid(context.Background(), reg, spec); err != nil {
		t.Fatal(err)
	}

	events, err := Stream(context.Background(), reg, spec)
	if err != nil {
		t.Fatal(err)
	}
	starts, dones, hits, terminal := collectEvents(t, events)
	if len(dones) != 0 || len(hits) != len(starts) || len(hits) == 0 {
		t.Fatalf("warm re-stream: %d dones / %d hits / %d starts, want all hits", len(dones), len(hits), len(starts))
	}
	for _, ev := range hits {
		if ev.Measurement == nil {
			t.Fatal("store_hit without measurement")
		}
	}
	if terminal.Hits != len(hits) || terminal.Misses != 0 {
		t.Fatalf("grid_done hit/miss %d/%d, want %d/0", terminal.Hits, terminal.Misses, len(hits))
	}
}

// TestProgressLine renders an 8-worker stream that mixes store hits with
// measured cells: each completion event renders one "cell k/n" line, k
// counting 1..n in emission order, and every other kind renders "".
func TestProgressLine(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := suite.New()
	spec := gridSpecForWorkers(8)
	spec.Store = st
	half := spec
	half.Devices = spec.Devices[:2]
	if _, err := RunGrid(context.Background(), reg, half); err != nil {
		t.Fatal(err)
	}

	events, err := Stream(context.Background(), reg, spec)
	if err != nil {
		t.Fatal(err)
	}
	const total = 3*2*4 + 4
	lines, kinds := 0, map[EventKind]int{}
	for ev := range events {
		kinds[ev.Kind]++
		line := ev.ProgressLine()
		if ev.Kind != EventCellDone && ev.Kind != EventStoreHit {
			if line != "" {
				t.Fatalf("%s event rendered %q", ev.Kind, line)
			}
			continue
		}
		lines++
		if want := fmt.Sprintf("cell %d/%d ", lines, total); !strings.HasPrefix(line, want) {
			t.Fatalf("completion %d rendered %q, want prefix %q", lines, line, want)
		}
		if hit := strings.HasSuffix(line, "[store]"); hit != (ev.Kind == EventStoreHit) {
			t.Fatalf("%s event rendered %q", ev.Kind, line)
		}
	}
	if lines != total || kinds[EventStoreHit] == 0 || kinds[EventCellDone] == 0 {
		t.Fatalf("%d progress lines from %v, want %d mixing hits and measured cells", lines, kinds, total)
	}
}

func TestStreamRejectsBadSelectionSynchronously(t *testing.T) {
	if _, err := Stream(context.Background(), suite.New(), GridSpec{
		Benchmarks: []string{"nope"}, Options: quickOpts(),
	}); err == nil {
		t.Fatal("unknown benchmark accepted by Stream")
	}
}

// TestRunGridCancellationPartial is the clean-shutdown contract: cancel
// after k completed cells, and (1) the returned partial grid holds exactly
// the completed cells, (2) the store holds exactly those cells and they
// round-trip through GridFromStore, (3) a re-run of the same spec
// store-hits exactly those cells and measures only the rest, and (4) no
// worker goroutines leak.
func TestRunGridCancellationPartial(t *testing.T) {
	before := runtime.NumGoroutine()

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := suite.New()
	spec := GridSpec{
		Benchmarks: []string{"crc", "fft", "nw", "csr"},
		Sizes:      []string{"tiny", "small"},
		Devices:    []string{"i7-6700k", "gtx1080", "k20m"},
		Options:    quickOpts(),
		Workers:    2,
		Store:      st,
		Metrics:    obs.NewRegistry(),
	}
	const total = 4 * 2 * 3

	ctx, cancel := context.WithCancel(context.Background())
	events, err := Stream(ctx, reg, spec)
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	completed := 0
	var partial *Grid
	var runErr error
	for ev := range events {
		switch ev.Kind {
		case EventCellDone, EventStoreHit:
			completed++
			if completed == k {
				cancel()
			}
		case EventGridDone:
			partial, runErr = ev.Grid, ev.Err
		}
	}
	cancel()

	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", runErr)
	}
	if partial == nil {
		t.Fatal("cancelled run returned no grid")
	}
	// In-flight cells may complete between the k-th event and the workers
	// observing cancellation, but the run must not have finished.
	if partial.Cells() < k || partial.Cells() >= total {
		t.Fatalf("partial grid has %d cells, want in [%d, %d)", partial.Cells(), k, total)
	}

	// (1)+(2): the store agrees exactly with the partial grid, and holds
	// the preparation of exactly the rows the run prepared — a row
	// cancelled mid-prepare persists nothing.
	cells, preps := storeRecords(t, st)
	if cells != partial.Cells() {
		t.Fatalf("store holds %d cells, partial grid %d — they must agree", cells, partial.Cells())
	}
	if prepared := spec.Metrics.CounterValue("harness_prepares_total"); preps == 0 || int64(preps) != prepared {
		t.Fatalf("store holds %d preparations, run prepared %d rows", preps, prepared)
	}
	if partial.StoreMisses != partial.Cells() || partial.StoreHits != 0 {
		t.Fatalf("partial counters: %d hits / %d misses over %d cells", partial.StoreHits, partial.StoreMisses, partial.Cells())
	}
	for _, m := range partial.Measurements {
		key := CellKey(m.Benchmark, m.Size, m.Device, spec.Options)
		if _, ok := st.Get(key); !ok {
			t.Fatalf("completed cell %s/%s/%s missing from store", m.Benchmark, m.Size, m.Device.ID)
		}
	}
	served, err := GridFromStore(st)
	if err != nil {
		t.Fatal(err)
	}
	if served.Cells() != partial.Cells() {
		t.Fatalf("GridFromStore: %d cells, want %d", served.Cells(), partial.Cells())
	}
	for _, m := range partial.Measurements {
		got := served.Find(m.Benchmark, m.Size, m.Device.ID)
		if got == nil || !reflect.DeepEqual(m, got) {
			t.Fatalf("cell %s/%s/%s does not round-trip through the store", m.Benchmark, m.Size, m.Device.ID)
		}
	}

	// (3): the re-run hits exactly the persisted cells.
	resumed, err := RunGrid(context.Background(), reg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Cells() != total {
		t.Fatalf("resumed run measured %d cells, want %d", resumed.Cells(), total)
	}
	if resumed.StoreHits != partial.Cells() || resumed.StoreMisses != total-partial.Cells() {
		t.Fatalf("resumed run: %d hits / %d misses, want %d / %d",
			resumed.StoreHits, resumed.StoreMisses, partial.Cells(), total-partial.Cells())
	}

	// (4): all worker and streamer goroutines are gone.
	//lint:allow detrand test polling deadline, not simulation state
	deadline := time.Now().Add(5 * time.Second)
	//lint:allow detrand test polling deadline, not simulation state
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutine leak: %d before, %d after cancellation", before, after)
	}
}

// TestPrepareMeasureHonourCancellation: both phases abort with the
// context's error instead of computing.
func TestPrepareMeasureHonourCancellation(t *testing.T) {
	reg := suite.New()
	b, _ := reg.Get("crc")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Prepare(ctx, b, "tiny", quickOpts()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Prepare under cancelled ctx: %v", err)
	}
	p, err := Prepare(context.Background(), b, "tiny", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Measure(ctx, device(t, "i7-6700k"), quickOpts()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Measure under cancelled ctx: %v", err)
	}
	if _, err := Run(ctx, b, "tiny", device(t, "i7-6700k"), quickOpts()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run under cancelled ctx: %v", err)
	}
}

// TestMergeDedupesByCellCoordinate is the Merge regression test: merging
// overlapping grids must key by cell coordinate with last-wins semantics,
// not blindly append.
func TestMergeDedupesByCellCoordinate(t *testing.T) {
	reg := suite.New()
	opt := quickOpts()
	mk := func(benches []string, devices []string) *Grid {
		g, err := RunGrid(context.Background(), reg, GridSpec{
			Benchmarks: benches, Sizes: []string{"tiny"}, Devices: devices, Options: opt,
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}

	a := mk([]string{"crc", "fft"}, []string{"i7-6700k", "gtx1080"}) // 4 cells
	b := mk([]string{"fft", "nw"}, []string{"gtx1080", "k20m"})      // 4 cells, fft/gtx1080 overlaps

	overlap := b.Find("fft", "tiny", "gtx1080")
	if overlap == nil {
		t.Fatal("missing overlap cell")
	}
	a.Merge(b)
	if got, want := a.Cells(), 7; got != want {
		t.Fatalf("merged grid has %d cells, want %d (overlap must dedupe)", got, want)
	}
	// Last wins: the surviving overlap cell is b's object, in a's slot.
	if a.Find("fft", "tiny", "gtx1080") != overlap {
		t.Fatal("overlap cell is not the later grid's measurement")
	}
	n := 0
	for _, m := range a.Measurements {
		if m.Benchmark == "fft" && m.Size == "tiny" && m.Device.ID == "gtx1080" {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("%d copies of the overlap cell after merge, want 1", n)
	}
	// Order: a's cells keep their positions, b's new cells append in order.
	if a.Measurements[0].Benchmark != "crc" {
		t.Fatal("merge disturbed the receiver's order")
	}
	// Merging the same grid again is idempotent on size.
	a.Merge(b)
	if a.Cells() != 7 {
		t.Fatalf("re-merge grew the grid to %d cells", a.Cells())
	}
}
