package harness

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/faults"
	"opendwarfs/internal/obs"
	"opendwarfs/internal/opencl"
	"opendwarfs/internal/par"
	"opendwarfs/internal/store"
)

// GridSpec selects a slice of the benchmark × size × device space.
type GridSpec struct {
	// Benchmarks by name; empty = the whole suite.
	Benchmarks []string
	// Sizes; empty = every size the benchmark supports.
	Sizes []string
	// Devices by catalogue ID; empty = all 15 platforms.
	Devices []string
	Options Options
	// Workers is the number of goroutines measuring cells concurrently.
	// 0 (the default) uses runtime.GOMAXPROCS(0); 1 runs the grid
	// sequentially in grid order, reproducing the single-threaded
	// behaviour exactly. Results are deterministic and identical at every
	// worker count — cells are pure functions of (benchmark, size,
	// device, seed), never of execution order.
	Workers int
	// Store, when non-nil, makes the run incremental: each cell's
	// fingerprint (CellKey) is looked up before measuring, hits are decoded
	// instead of recomputed, and misses are measured then persisted. An
	// unchanged grid re-swept against the same store is a 100% hit and
	// produces value-identical measurements, hence byte-identical exports.
	// Each row's preparation is stored as well (see prepCache), so a miss
	// on a row an earlier run prepared replays the stored preparation
	// instead of running Prepare. Hits are read through GetDecoded, so a
	// *store.Store serves a cell it has decoded before as the shared
	// decoded value with zero re-parsing. Assign only a live store: a
	// typed-nil pointer in the interface reads as "store attached".
	Store store.CellStore
	// Faults, when non-nil, injects deterministic failures into every
	// measurement attempt (see internal/faults); nil — the default — is
	// the clean simulator. Store hits bypass injection: a cell already
	// persisted is served from disk without re-rolling its fate.
	Faults faults.Injector
	// Retry governs per-cell retries and their backoff. The zero value
	// makes exactly one attempt per cell, reproducing the non-retrying
	// harness exactly.
	Retry RetryPolicy
	// Metrics, when non-nil, receives the run's counters and latency
	// histograms (harness_*, store_decode_ns, faults_injected_total —
	// see DESIGN.md §10). The counters are derived from the same event
	// stream consumers see, so they agree exactly with the returned
	// Grid's hit/miss/retry/failure counts, including on a cancelled
	// partial grid. A registry shared across runs aggregates fleet-wide;
	// dwarfserve hands every job its server registry.
	Metrics *obs.Registry
	// Tracer, when non-nil, records one span per cell with prepare and
	// per-attempt measure children; export with WriteChromeTrace or
	// WriteJSONL after the run. When nil, a tracer carried by the run's
	// context (obs.ContextWithTracer) is used instead, so callers above
	// the GridSpec — schedulers, sessions — can trace without touching
	// the spec. Every span is closed by the time the run returns, even
	// under cancellation.
	Tracer *obs.Tracer
}

// Grid is a collection of measurements with lookup helpers — the data
// behind every figure in the paper.
type Grid struct {
	Measurements []*Measurement
	// StoreHits and StoreMisses count cells served from / measured into
	// GridSpec.Store; both are zero when no store was attached.
	StoreHits, StoreMisses int
	// Failed lists the cells that exhausted their measurement attempts
	// or sat on a dropped device, in grid order. A grid with failed
	// cells is still valid — exactly like a cancelled partial grid, the
	// measured cells all match the store and the failed ones were never
	// persisted.
	Failed []FailedCell
	// Retries counts retried measurement attempts across the run.
	Retries int
	// Quarantined lists the devices that went down during the run,
	// sorted; every planned cell on them appears in Failed.
	Quarantined []string
	// Elapsed is the wall-clock duration of the run that produced this
	// grid (zero for grids assembled by hand or loaded from a store).
	Elapsed time.Duration
}

// FailedCell records one cell the run could not measure: its coordinate,
// how many attempts were made, and the final fault class.
type FailedCell struct {
	Benchmark string `json:"benchmark"`
	Size      string `json:"size"`
	Device    string `json:"device"`
	Attempts  int    `json:"attempts"`
	Reason    string `json:"reason"`
}

// HitRate returns the store hit percentage of the run (0 with no store).
func (g *Grid) HitRate() float64 {
	total := g.StoreHits + g.StoreMisses
	if total == 0 {
		return 0
	}
	return 100 * float64(g.StoreHits) / float64(total)
}

// gridCell is one planned benchmark × size × device measurement.
type gridCell struct {
	bench dwarfs.Benchmark
	size  string
	dev   *opencl.Device
}

// String names the cell as benchmark/size/device, as errors quote it.
func (c gridCell) String() string { return c.bench.Name() + "/" + c.size + "/" + c.dev.ID() }

// planCells expands a spec into the ordered cell list (grid order:
// benchmark-major, then size, then device).
func planCells(reg *dwarfs.Registry, spec GridSpec) ([]gridCell, int, error) {
	benches := reg.All()
	if len(spec.Benchmarks) > 0 {
		benches = benches[:0:0]
		for _, name := range spec.Benchmarks {
			b, err := reg.Get(name)
			if err != nil {
				return nil, 0, err
			}
			benches = append(benches, b)
		}
	}
	var devices []*opencl.Device
	if len(spec.Devices) == 0 {
		devices = opencl.AllDevices()
	} else {
		for _, id := range spec.Devices {
			d, err := opencl.LookupDevice(id)
			if err != nil {
				// sim.Lookup's message already carries the sorted catalogue.
				return nil, 0, fmt.Errorf("harness: %w", err)
			}
			devices = append(devices, d)
		}
	}

	// A size supported by only some selected benchmarks narrows those
	// benchmarks' rows; a size supported by none is a flag typo and must
	// fail loudly, like an unknown benchmark or device.
	if len(spec.Sizes) > 0 {
		valid := map[string]bool{}
		for _, b := range benches {
			for _, s := range b.Sizes() {
				valid[s] = true
			}
		}
		for _, s := range spec.Sizes {
			if !valid[s] {
				known := make([]string, 0, len(valid))
				for v := range valid {
					known = append(known, v)
				}
				sort.Strings(known)
				return nil, 0, fmt.Errorf("harness: unknown size %q (valid for the selected benchmarks: %v)", s, known)
			}
		}
	}

	var cells []gridCell
	for _, b := range benches {
		sizes := b.Sizes()
		if len(spec.Sizes) > 0 {
			sizes = sizes[:0:0]
			for _, s := range spec.Sizes {
				if !dwarfs.SupportsSize(b, s) {
					continue
				}
				sizes = append(sizes, s)
			}
		}
		for _, size := range sizes {
			for _, dev := range devices {
				cells = append(cells, gridCell{bench: b, size: size, dev: dev})
			}
		}
	}
	return cells, len(devices), nil
}

// dispatchOrder decides which cell each worker pulls next. A single worker
// walks the grid in order. Multiple workers walk it device-major (all rows'
// first device, then all rows' second device, …) so that the first W cells
// touch W different rows and their device-independent preparations run
// concurrently instead of serialising on one row's cache entry.
func dispatchOrder(nCells, nDevices, workers int) []int {
	order := make([]int, 0, nCells)
	if workers <= 1 || nDevices <= 1 {
		for i := 0; i < nCells; i++ {
			order = append(order, i)
		}
		return order
	}
	for d := 0; d < nDevices; d++ {
		for i := d; i < nCells; i += nDevices {
			order = append(order, i)
		}
	}
	return order
}

// RunGrid measures every selected cell, dispatching them across
// spec.Workers goroutines. Each row (benchmark × size) is prepared once —
// dataset, characterisation, functional verification — and shared by all
// of its devices; see Prepare/Measure. Measurements come back in grid
// order regardless of worker count, and a parallel grid is cell-for-cell
// identical to a sequential one.
//
// RunGrid calls the cell runner Stream uses from the caller's goroutine,
// with no event channel; Stream's grid_done carries the same grid. Once
// the spec is planned, RunGrid returns a grid on every stop. When ctx is
// cancelled or a cell fails, the grid is partial: exactly the cells that
// completed, in grid order, every one already persisted when a store is
// attached. It comes with the context's or the cell's error, and
// re-running the same spec afterwards store-hits precisely those cells.
// An invalid spec yields no grid.
func RunGrid(ctx context.Context, reg *dwarfs.Registry, spec GridSpec) (*Grid, error) {
	cells, nDevices, err := planCells(reg, spec)
	if err != nil {
		return nil, err
	}
	return runGrid(ctx, spec, cells, nDevices, func(Event) {})
}

// gridRun is the state of one runGrid call. Its methods are the phases of
// one cell — store lookup, prepare, one measurement attempt, persist and
// fail — which cell drives for one index of the dispatch order.
type gridRun struct {
	spec     GridSpec
	cells    []gridCell
	mo       gridMetrics
	injector faults.Injector // spec.Faults, counted when metrics are on
	tracer   *obs.Tracer
	cache    *prepCache
	emit     func(Event)

	// Per-cell outcomes, each slot written only by the cell's worker.
	results  []*Measurement
	failures []*FailedCell

	// mu guards the counters and the quarantine set, and orders
	// emission; see send.
	mu                                  sync.Mutex
	done, hits, misses, retries, failed int
	quarantined                         map[string]bool
}

// runGrid is the cell runner shared by Stream and RunGrid. It emits one
// CellStart per claimed cell and one CellDone or StoreHit per completed
// cell via emit — which must be non-nil and is called from worker
// goroutines, serialised by the run's mutex. It returns the grid of the
// completed cells on every stop, with the first cell error in grid order
// or, failing that, the context's error.
func runGrid(ctx context.Context, spec GridSpec, cells []gridCell, nDevices int, emit func(Event)) (*Grid, error) {
	started := now()
	if len(cells) == 0 {
		return &Grid{}, ctx.Err()
	}
	workers := par.Workers(spec.Workers, len(cells))

	// Observability: metric handles are resolved once here (nil registry
	// yields nil metrics whose methods no-op, so the hot path never
	// branches on "is instrumentation on"), the injector is wrapped to
	// count injected faults by kind, and the tracer — from the spec, or
	// carried by ctx for callers above the spec — roots a run-level span
	// that every cell span parents under.
	r := &gridRun{
		spec:        spec,
		cells:       cells,
		mo:          newGridMetrics(spec.Metrics),
		injector:    spec.Faults,
		tracer:      spec.Tracer,
		emit:        emit,
		results:     make([]*Measurement, len(cells)),
		failures:    make([]*FailedCell, len(cells)),
		quarantined: map[string]bool{},
	}
	r.cache = newPrepCache(spec.Store, r.mo)
	if spec.Metrics != nil {
		r.injector = faults.Counted(r.injector, spec.Metrics)
	}
	if r.tracer == nil {
		r.tracer = obs.TracerFrom(ctx)
	}
	if r.tracer != nil {
		ctx = obs.ContextWithTracer(ctx, r.tracer)
		var gspan *obs.Span
		ctx, gspan = obs.StartSpan(ctx, "harness.grid",
			obs.Int("cells", len(cells)), obs.Int("workers", workers))
		defer gspan.End()
	}

	errs := make([]error, len(cells))
	var stopped atomic.Bool
	order := dispatchOrder(len(cells), nDevices, workers)
	par.For(workers, len(order), func(n int) {
		if stopped.Load() || ctx.Err() != nil {
			return
		}
		i := order[n]
		if err := r.cell(ctx, i); err != nil {
			// A cell aborted by cancellation is not a cell failure:
			// the cell is simply not part of the partial grid.
			if ctx.Err() == nil {
				errs[i] = err
			}
			stopped.Store(true)
		}
	})

	g := &Grid{
		StoreHits:   r.hits,
		StoreMisses: r.misses,
		Retries:     r.retries,
		Elapsed:     since(started),
	}
	// Failures and quarantines apply to partial grids too: a cell that
	// failed before the stop genuinely failed.
	for _, f := range r.failures {
		if f != nil {
			g.Failed = append(g.Failed, *f)
		}
	}
	for dev := range r.quarantined {
		g.Quarantined = append(g.Quarantined, dev)
	}
	sort.Strings(g.Quarantined)
	// Exactly the completed cells, grid order — partial after a stop,
	// missing only the failed cells otherwise. Every measurement was
	// persisted before its CellDone event fired, so the store and the
	// returned grid agree.
	g.Measurements = make([]*Measurement, 0, r.done)
	for _, m := range r.results {
		if m != nil {
			g.Measurements = append(g.Measurements, m)
		}
	}
	// Error selection: the earliest failing cell in grid order among
	// those attempted. With Workers: 1 this is exactly the sequential
	// harness's first error; under concurrency which cells were attempted
	// before the stop flag landed depends on scheduling, so a different
	// (equally genuine) cell's error may surface across runs.
	for _, err := range errs {
		if err != nil {
			return g, err
		}
	}
	return g, ctx.Err()
}

// cell runs the phases of cells[i] under its harness.cell span: store
// lookup, prepare, then attempts until one is measured and persisted,
// the device is down, or the attempts run out. It returns an error only
// for what ends the run — cancellation, or a harness, model or store
// error; a fault-class failure is recorded by fail and the run goes on.
func (r *gridRun) cell(ctx context.Context, i int) (err error) {
	c := r.cells[i]
	start := now()
	// Workers run on their own goroutines, where an escaping panic
	// would abort the process with no chance for the caller to
	// recover; convert it to a cell error instead.
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("harness: grid cell %s panicked: %v", c, v)
		}
	}()
	// The cell span parents every phase below; attr construction is
	// gated on the tracer so the untraced path stays allocation-free.
	var span *obs.Span
	if r.tracer != nil {
		ctx, span = obs.StartSpan(ctx, "harness.cell",
			obs.String("benchmark", c.bench.Name()),
			obs.String("size", c.size),
			obs.String("device", c.dev.ID()))
	}
	defer span.End()
	r.send(r.event(EventCellStart, c))

	var key string
	if r.spec.Store != nil {
		key = CellKey(c.bench.Name(), c.size, c.dev.Spec, r.spec.Options)
		if m := r.lookup(key); m != nil {
			span.SetAttr("outcome", "store_hit")
			r.complete(i, EventStoreHit, m, start)
			return nil
		}
	}
	p, err := r.prepare(ctx, c)
	if err != nil {
		return fmt.Errorf("harness: grid cell %s: %w", c, err)
	}
	for attempt := 1; ; attempt++ {
		m, aerr := r.attempt(ctx, c, p, attempt)
		if aerr == nil {
			if err := r.persist(c, key, m); err != nil {
				return err
			}
			span.SetAttr("outcome", "measured")
			r.complete(i, EventCellDone, m, start)
			return nil
		}
		if ctx.Err() != nil {
			// The run was cancelled: not a cell failure (and not a
			// fault) — the cell is simply not part of the partial grid.
			return ctx.Err()
		}
		if errors.Is(aerr, faults.ErrDeviceDown) {
			r.send(Event{Kind: EventDeviceQuarantined, Device: c.dev.ID(), Reason: "device down", Total: len(r.cells)})
			r.fail(i, span, start, attempt, "device down")
			return nil
		}
		if !errors.Is(aerr, faults.ErrTransient) {
			// A genuine harness/model error: abort the grid, as a
			// non-faulted run would.
			return fmt.Errorf("harness: grid cell %s: %w", c, aerr)
		}
		if attempt >= r.spec.Retry.attempts() {
			r.fail(i, span, start, attempt, "transient fault")
			return nil
		}
		ev := r.event(EventCellRetry, c)
		ev.Attempt, ev.Reason = attempt, "transient fault"
		r.send(ev)
		if d := r.spec.Retry.backoff(attempt + 1); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			}
		}
	}
}

// lookup serves a cell from the store. The store hands back its shared
// decoded cell, so only the first read of a key through the handle pays
// the JSON decode. A key whose payload does not decode under the current
// code reads as a miss: the cell is measured and overwritten.
func (r *gridRun) lookup(key string) *Measurement {
	start := now()
	v, ok, err := r.spec.Store.GetDecoded(key, decodeMeasurementSlot)
	if err != nil || !ok {
		return nil
	}
	r.mo.decodeNs.Observe(float64(since(start)))
	return v.(*Measurement)
}

// prepare returns the cell's row preparation, shared by every device of
// the row through the run's cache.
func (r *gridRun) prepare(ctx context.Context, c gridCell) (*Preparation, error) {
	var span *obs.Span
	if r.tracer != nil {
		ctx, span = obs.StartSpan(ctx, "harness.prepare")
	}
	start := now()
	p, err := r.cache.prepare(ctx, c.bench, c.size, r.spec.Options)
	r.mo.prepareNs.Observe(float64(since(start)))
	span.End()
	return p, err
}

// attempt runs one measurement attempt: the injector's verdict first,
// then the model. Fault decisions are pure functions of (cell, attempt),
// so the attempts a cell sees are the same at every worker count.
func (r *gridRun) attempt(ctx context.Context, c gridCell, p *Preparation, n int) (*Measurement, error) {
	var span *obs.Span
	if r.tracer != nil {
		ctx, span = obs.StartSpan(ctx, "harness.measure", obs.Int("attempt", n))
	}
	defer span.End()
	var dec faults.Decision
	if r.injector != nil {
		dec = r.injector.Decide(c.bench.Name(), c.size, c.dev.ID(), n)
	}
	switch {
	case dec.Dropped:
		return nil, faults.ErrDeviceDown
	case dec.Transient:
		return nil, faults.ErrTransient
	}
	start := now()
	m, err := p.Measure(ctx, c.dev, r.spec.Options)
	r.mo.measureNs.Observe(float64(since(start)))
	if err != nil {
		return nil, err
	}
	applyDecision(m, dec)
	return m, nil
}

// persist appends a measured cell to the store, when one is attached;
// its cell_done fires only after. The cell itself fills the key's decoded
// slot: it is deep-equal to its decode, so a later GridFromStore over the
// same handle reads it without parsing the bytes just encoded.
func (r *gridRun) persist(c gridCell, key string, m *Measurement) error {
	if r.spec.Store == nil {
		return nil
	}
	raw, err := EncodeMeasurement(m)
	if err != nil {
		return err
	}
	if err := r.spec.Store.Put(store.Record{
		Key: key, Benchmark: m.Benchmark, Size: m.Size, Device: m.Device.ID,
		Schema: StoreSchemaVersion, Value: raw, Decoded: m,
	}); err != nil {
		return fmt.Errorf("harness: grid cell %s: %w", c, err)
	}
	return nil
}

// fail records a fault-class failure: the cell stays out of the grid and
// the store, and the run goes on.
func (r *gridRun) fail(i int, span *obs.Span, start time.Time, attempt int, reason string) {
	c := r.cells[i]
	span.SetAttr("outcome", "failed")
	span.SetAttr("reason", reason)
	r.failures[i] = &FailedCell{
		Benchmark: c.bench.Name(), Size: c.size, Device: c.dev.ID(),
		Attempts: attempt, Reason: reason,
	}
	ev := r.event(EventCellFailed, c)
	ev.Elapsed = since(start)
	ev.Attempt, ev.Reason = attempt, reason
	r.send(ev)
}

// complete files cell i's measurement, served or measured, and emits
// its completion event.
func (r *gridRun) complete(i int, kind EventKind, m *Measurement, start time.Time) {
	r.results[i] = m
	ev := r.event(kind, r.cells[i])
	ev.Elapsed = since(start)
	ev.Measurement = m
	r.send(ev)
}

// event starts an event about cell c; send stamps its counters.
func (r *gridRun) event(kind EventKind, c gridCell) Event {
	return Event{Kind: kind, Benchmark: c.bench.Name(), Size: c.size, Device: c.dev.ID(), Total: len(r.cells)}
}

// send bumps the run's counters by the event's kind, stamps all five on
// the event and emits it, under mu throughout. Each of Done, Hits,
// Misses, Retries and Failed is therefore non-decreasing in emission
// order — consumers never see "cell 2/n" before "cell 1/n" — and the
// registry's counters, bumped in the same place, agree exactly with what
// consumers saw and with the returned grid, partial grids included.
func (r *gridRun) send(ev Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch ev.Kind {
	case EventCellDone:
		r.done++
		if r.spec.Store != nil {
			// A miss counts once it is persisted, which its cell_done
			// follows: under cancellation, hits + misses equal exactly
			// the completed cells.
			r.misses++
			r.mo.misses.Inc()
		}
		r.mo.cells.Inc()
		r.mo.deviceCells(ev.Device)
		r.mo.cellNs.Observe(float64(ev.Elapsed))
	case EventStoreHit:
		r.done++
		r.hits++
		r.mo.hits.Inc()
		r.mo.cells.Inc()
		r.mo.deviceCells(ev.Device)
		r.mo.cellNs.Observe(float64(ev.Elapsed))
	case EventCellRetry:
		r.retries++
		r.mo.retries.Inc()
	case EventCellFailed:
		r.failed++
		r.mo.failed.Inc()
	case EventDeviceQuarantined:
		// Only the first cell to find a device down reports it. Later
		// cells on the device still roll their own (deterministic)
		// attempt-1 verdict rather than consulting this set, so per-cell
		// event sequences are identical at every worker count — the set
		// exists for the single event and the grid's Quarantined
		// listing, not for control flow.
		if r.quarantined[ev.Device] {
			return
		}
		r.quarantined[ev.Device] = true
		r.mo.quarantines.Inc()
	}
	ev.Done, ev.Hits, ev.Misses = r.done, r.hits, r.misses
	ev.Retries, ev.Failed = r.retries, r.failed
	//lint:allow locksend emitting under the lock is what orders events; Stream's emit selects on ctx.Done()
	r.emit(ev)
}

// Cells returns the number of measured cells.
func (g *Grid) Cells() int { return len(g.Measurements) }

// Find returns the measurement for a cell, or nil. The miss path is
// allocation-free.
func (g *Grid) Find(bench, size, deviceID string) *Measurement {
	for _, m := range g.Measurements {
		if m.Benchmark == bench && m.Size == size && m.Device.ID == deviceID {
			return m
		}
	}
	return nil
}

// ByBenchmark returns all measurements of one benchmark, grid order. The
// miss path is allocation-free, and hits allocate exactly once.
func (g *Grid) ByBenchmark(bench string) []*Measurement {
	n := 0
	for _, m := range g.Measurements {
		if m.Benchmark == bench {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]*Measurement, 0, n)
	for _, m := range g.Measurements {
		if m.Benchmark == bench {
			out = append(out, m)
		}
	}
	return out
}

// Merge absorbs another grid's measurements, keyed by cell coordinate
// (benchmark × size × device): a cell present in both grids is replaced by
// o's copy (last wins, in place, preserving g's order), new cells are
// appended in o's order. Store hit/miss and retry counters accumulate;
// quarantined-device sets union. Failures merge by the same coordinate
// rule (o's record wins) except that a measurement always supersedes a
// failure — a cell measured by either grid is not failed in the merge,
// whichever run failed it first. Merging grids measured under different
// options is the caller's responsibility — the coordinate cannot
// distinguish them. Merging nil — the grid of a run whose spec did not
// plan — changes nothing.
func (g *Grid) Merge(o *Grid) {
	if o == nil {
		return
	}
	idx := make(map[string]int, len(g.Measurements))
	for i, m := range g.Measurements {
		idx[mergeKey(m)] = i
	}
	for _, m := range o.Measurements {
		if i, ok := idx[mergeKey(m)]; ok {
			g.Measurements[i] = m
			continue
		}
		idx[mergeKey(m)] = len(g.Measurements)
		g.Measurements = append(g.Measurements, m)
	}
	g.StoreHits += o.StoreHits
	g.StoreMisses += o.StoreMisses
	g.Retries += o.Retries

	if len(g.Failed) > 0 || len(o.Failed) > 0 {
		fidx := make(map[string]int)
		merged := make([]FailedCell, 0, len(g.Failed)+len(o.Failed))
		for _, f := range g.Failed {
			key := f.Benchmark + "\x00" + f.Size + "\x00" + f.Device
			if _, measured := idx[key]; measured {
				continue
			}
			fidx[key] = len(merged)
			merged = append(merged, f)
		}
		for _, f := range o.Failed {
			key := f.Benchmark + "\x00" + f.Size + "\x00" + f.Device
			if _, measured := idx[key]; measured {
				continue
			}
			if i, ok := fidx[key]; ok {
				merged[i] = f
				continue
			}
			fidx[key] = len(merged)
			merged = append(merged, f)
		}
		g.Failed = merged
	}
	if len(o.Quarantined) > 0 {
		seen := make(map[string]bool, len(g.Quarantined)+len(o.Quarantined))
		for _, d := range g.Quarantined {
			seen[d] = true
		}
		for _, d := range o.Quarantined {
			if !seen[d] {
				seen[d] = true
				g.Quarantined = append(g.Quarantined, d)
			}
		}
		sort.Strings(g.Quarantined)
	}
}

func mergeKey(m *Measurement) string {
	return m.Benchmark + "\x00" + m.Size + "\x00" + m.Device.ID
}
