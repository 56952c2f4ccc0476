package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"opendwarfs/internal/faults"
	"opendwarfs/internal/obs"
	"opendwarfs/internal/store"
	"opendwarfs/internal/suite"
)

// Satellite: a chaos sweep's obs counters must agree exactly with the
// typed event stream and with the returned grid — cells, store hits and
// misses, retries, failures, quarantines.
func TestObsCountersAgreeWithEventsUnderChaos(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := obs.NewRegistry()
	spec := GridSpec{
		Benchmarks: []string{"crc", "fft", "nw"}, Sizes: []string{"tiny"},
		Devices: []string{"i7-6700k", "gtx1080", "k20m"},
		Options: quickOpts(), Workers: 2, Store: st,
		Retry:   RetryPolicy{MaxAttempts: 3},
		Faults:  &faults.Plan{Seed: 42, TransientRate: 0.3, Drop: []string{"k20m"}},
		Metrics: reg,
	}
	events, err := Stream(context.Background(), suite.New(), spec)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[EventKind]int{}
	var g *Grid
	for ev := range events {
		counts[ev.Kind]++
		if ev.Kind == EventGridDone {
			g = ev.Grid
			if ev.Err != nil {
				t.Fatalf("grid_done error: %v", ev.Err)
			}
		}
	}
	if len(g.Quarantined) == 0 || g.Retries == 0 {
		t.Fatalf("scenario not chaotic enough to test anything: %+v", g)
	}

	type check struct {
		metric string
		got    int64
		want   int
	}
	completed := counts[EventCellDone] + counts[EventStoreHit]
	for _, c := range []check{
		{"harness_cells_total", reg.CounterValue("harness_cells_total"), completed},
		{"harness_store_hits_total", reg.CounterValue("harness_store_hits_total"), counts[EventStoreHit]},
		{"harness_store_misses_total", reg.CounterValue("harness_store_misses_total"), counts[EventCellDone]},
		{"harness_retries_total", reg.CounterValue("harness_retries_total"), counts[EventCellRetry]},
		{"harness_failed_cells_total", reg.CounterValue("harness_failed_cells_total"), counts[EventCellFailed]},
		{"harness_quarantines_total", reg.CounterValue("harness_quarantines_total"), counts[EventDeviceQuarantined]},
	} {
		if c.got != int64(c.want) {
			t.Errorf("%s = %d, want %d (event count)", c.metric, c.got, c.want)
		}
	}
	// And the same counters against the grid itself.
	for _, c := range []check{
		{"harness_cells_total", reg.CounterValue("harness_cells_total"), g.Cells()},
		{"harness_store_hits_total", reg.CounterValue("harness_store_hits_total"), g.StoreHits},
		{"harness_store_misses_total", reg.CounterValue("harness_store_misses_total"), g.StoreMisses},
		{"harness_retries_total", reg.CounterValue("harness_retries_total"), g.Retries},
		{"harness_failed_cells_total", reg.CounterValue("harness_failed_cells_total"), len(g.Failed)},
		{"harness_quarantines_total", reg.CounterValue("harness_quarantines_total"), len(g.Quarantined)},
	} {
		if c.got != int64(c.want) {
			t.Errorf("%s = %d, want %d (grid counter)", c.metric, c.got, c.want)
		}
	}
	// The fault injector's own counters: the dropped device injected
	// device_down at least once, the transient rate fired at least once,
	// and every retry the harness saw was caused by an injected fault.
	if reg.CounterValue(obs.Name("faults_injected_total", "kind", "device_down")) == 0 {
		t.Error("faults_injected_total{kind=device_down} = 0 with a dropped device")
	}
	if n := reg.CounterValue(obs.Name("faults_injected_total", "kind", "transient")); n < int64(g.Retries) {
		t.Errorf("faults_injected_total{kind=transient} = %d < retries %d", n, g.Retries)
	}
	// Latency histograms observed one value per completed cell.
	if n := reg.Histogram("harness_cell_ns", nil).Count(); n != int64(completed) {
		t.Errorf("harness_cell_ns count = %d, want %d", n, completed)
	}
	// Each row of the empty store was prepared once and none decoded.
	const rows = 3
	if n := reg.CounterValue("harness_prepares_total"); n != rows {
		t.Errorf("harness_prepares_total = %d, want %d rows", n, rows)
	}
	if n := reg.CounterValue("harness_prep_store_hits_total"); n != 0 {
		t.Errorf("harness_prep_store_hits_total = %d in an empty store", n)
	}
	// store_appends_total via Instrument: one append per persisted miss
	// and one per prepared row.
	st2, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	st2.Instrument(reg)
	spec2 := spec
	spec2.Store = st2
	preparedBefore := reg.CounterValue("harness_prepares_total")
	g2, err := RunGrid(context.Background(), suite.New(), spec2)
	if err != nil {
		t.Fatal(err)
	}
	prepared := reg.CounterValue("harness_prepares_total") - preparedBefore
	if prepared != rows {
		t.Errorf("second run prepared %d rows, want %d", prepared, rows)
	}
	if n := reg.CounterValue("store_appends_total"); n != int64(g2.StoreMisses)+prepared {
		t.Errorf("store_appends_total = %d, want %d misses + %d preparations", n, g2.StoreMisses, prepared)
	}
	if err := st2.Compact(); err != nil {
		t.Fatal(err)
	}
	if n := reg.CounterValue("store_compactions_total"); n != 1 {
		t.Errorf("store_compactions_total = %d, want 1", n)
	}
}

// Acceptance criterion: a cancelled mid-grid sweep produces a well-formed
// trace — every started span closed — and counters equal to the partial
// grid's hit/miss/retry counts.
func TestObsCancelledSweepTraceAndCounters(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	spec := GridSpec{
		Benchmarks: []string{"crc", "fft", "nw", "csr"},
		Sizes:      []string{"tiny", "small"},
		Devices:    []string{"i7-6700k", "gtx1080", "k20m"},
		Options:    quickOpts(), Workers: 2, Store: st,
		Metrics: reg,
		Tracer:  tr,
	}
	const total = 4 * 2 * 3
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events, err := Stream(ctx, suite.New(), spec)
	if err != nil {
		t.Fatal(err)
	}
	completed := 0
	var partial *Grid
	var runErr error
	for ev := range events {
		switch ev.Kind {
		case EventCellDone, EventStoreHit:
			completed++
			if completed == 3 {
				cancel()
			}
		case EventGridDone:
			partial, runErr = ev.Grid, ev.Err
		}
	}
	if !errors.Is(runErr, context.Canceled) || partial == nil {
		t.Fatalf("cancelled run: grid=%v err=%v", partial, runErr)
	}
	if partial.Cells() >= total {
		t.Fatalf("run finished before cancellation took effect; cells=%d", partial.Cells())
	}

	// Well-formed trace: nothing left open, and the export is valid JSON
	// containing the run root and one cell span per completed-or-failed
	// cell attempt set.
	if n := tr.OpenSpans(); n != 0 {
		t.Fatalf("cancelled run left %d spans open", n)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	names := map[string]int{}
	for _, ev := range doc.TraceEvents {
		names[ev.Name]++
	}
	if names["harness.grid"] != 1 {
		t.Fatalf("trace has %d harness.grid roots, want 1", names["harness.grid"])
	}
	if names["harness.cell"] < partial.Cells() {
		t.Fatalf("trace has %d cell spans, want >= %d completed cells", names["harness.cell"], partial.Cells())
	}

	// Counters equal the partial grid's counts exactly.
	if got := reg.CounterValue("harness_cells_total"); got != int64(partial.Cells()) {
		t.Errorf("harness_cells_total = %d, want %d", got, partial.Cells())
	}
	if got := reg.CounterValue("harness_store_hits_total"); got != int64(partial.StoreHits) {
		t.Errorf("harness_store_hits_total = %d, want %d", got, partial.StoreHits)
	}
	if got := reg.CounterValue("harness_store_misses_total"); got != int64(partial.StoreMisses) {
		t.Errorf("harness_store_misses_total = %d, want %d", got, partial.StoreMisses)
	}
	if got := reg.CounterValue("harness_retries_total"); got != int64(partial.Retries) {
		t.Errorf("harness_retries_total = %d, want %d", got, partial.Retries)
	}
}

// A tracer carried by the context (obs.ContextWithTracer) is picked up
// when the spec has none — the path sessions and schedulers use — and a
// store-hit sweep traces cell spans without prepare/measure children.
func TestObsTracerFromContextAndStoreHits(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	spec := GridSpec{
		Benchmarks: []string{"crc"}, Sizes: []string{"tiny"},
		Devices: []string{"i7-6700k", "gtx1080"},
		Options: quickOpts(), Workers: 1, Store: st,
	}
	tr1 := obs.NewTracer()
	ctx := obs.ContextWithTracer(context.Background(), tr1)
	g, err := RunGrid(ctx, suite.New(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if g.StoreMisses != 2 {
		t.Fatalf("misses = %d, want 2", g.StoreMisses)
	}
	// 1 grid + per cell: cell + prepare + one measure attempt.
	if want := 1 + 2*3; tr1.Spans() != want {
		t.Fatalf("ctx tracer recorded %d spans, want %d", tr1.Spans(), want)
	}
	if tr1.OpenSpans() != 0 {
		t.Fatalf("%d spans left open", tr1.OpenSpans())
	}

	tr2 := obs.NewTracer()
	spec.Tracer = tr2
	g2, err := RunGrid(context.Background(), suite.New(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if g2.StoreHits != 2 {
		t.Fatalf("re-sweep hits = %d, want 2", g2.StoreHits)
	}
	// All hits: 1 grid + one cell span each, no prepare/measure children.
	if want := 1 + 2; tr2.Spans() != want {
		t.Fatalf("store-hit tracer recorded %d spans, want %d", tr2.Spans(), want)
	}
}

// Instrumentation must not perturb results: the same spec with and
// without metrics+tracer produces value-identical measurements.
func TestObsInstrumentationDoesNotChangeResults(t *testing.T) {
	base := GridSpec{
		Benchmarks: []string{"crc", "fft"}, Sizes: []string{"tiny"},
		Devices: []string{"i7-6700k", "gtx1080"},
		Options: quickOpts(), Workers: 2,
	}
	plain, err := RunGrid(context.Background(), suite.New(), base)
	if err != nil {
		t.Fatal(err)
	}
	wired := base
	wired.Metrics = obs.NewRegistry()
	wired.Tracer = obs.NewTracer()
	traced, err := RunGrid(context.Background(), suite.New(), wired)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Measurements) != len(traced.Measurements) {
		t.Fatalf("cell counts differ: %d vs %d", len(plain.Measurements), len(traced.Measurements))
	}
	for i := range plain.Measurements {
		a, b := plain.Measurements[i], traced.Measurements[i]
		if a.Benchmark != b.Benchmark || a.Size != b.Size || a.Device.ID != b.Device.ID ||
			a.Kernel.Median != b.Kernel.Median || a.Energy.Median != b.Energy.Median {
			t.Fatalf("cell %d differs under instrumentation: %+v vs %+v", i, a, b)
		}
	}
}
