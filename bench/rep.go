package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"opendwarfs/internal/harness"
	"opendwarfs/internal/obs"
	"opendwarfs/internal/store"
	"opendwarfs/internal/suite"
)

// readyLine is what a rep child prints once its store is open, just
// before it sweeps; the parent's set-up time ends when it reads it.
const readyLine = "ready"

// repSpec tells a child process what to run.
type repSpec struct {
	Store   string    `json:"store"`
	Sel     selection `json:"sel"`
	Seed    int64     `json:"seed"`
	Workers int       `json:"workers"`
	// Sweep runs the grid; without it the child only opens the store and,
	// traced, runs the layer probes over it (serve_mixed's final store),
	// replaying Rows as the rows prepared.
	Sweep bool        `json:"sweep"`
	Rows  [][2]string `json:"rows,omitempty"`
	// Trace, when set, is the path prefix of the traced mode's output.
	Trace string `json:"trace,omitempty"`
}

// repOut is what a child reports. SetupS is filled in by the parent, which
// observes it from outside.
type repOut struct {
	Err       string            `json:"err,omitempty"`
	GridS     float64           `json:"grid_s"`
	AllocMB   float64           `json:"alloc_mb"`
	Hits      int               `json:"hits"`
	Misses    int               `json:"misses"`
	Digest    string            `json:"digest"`
	CellMs    []float64         `json:"cell_ms"`
	LayerSumS float64           `json:"layer_sum_s,omitempty"`
	Layers    map[string]metric `json:"layers,omitempty"`
	RSSMB     float64           `json:"rss_mb"` // peak resident set after the grid
	SetupS    float64           `json:"-"`
}

func runRep(arg string) int {
	var spec repSpec
	if err := json.Unmarshal([]byte(arg), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "bench rep:", err)
		return 1
	}
	out := rep(spec)
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench rep:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

func rep(spec repSpec) (out repOut) {
	var tracer *obs.Tracer
	var reg *obs.Registry
	if spec.Trace != "" {
		tracer, reg = obs.NewTracer(), obs.NewRegistry()
	}
	ctx := obs.ContextWithTracer(context.Background(), tracer)
	layers := layerSet{}

	_, span := obs.StartSpan(ctx, spanStoreOpen)
	cached, err := openCached(spec.Store)
	span.End()
	fmt.Println(readyLine)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	layers.set("store.open_records", "count", float64(cached.Len()))
	defer func() {
		if err := cached.Close(); err != nil && out.Err == "" {
			out.Err = err.Error()
		}
	}()
	var cs store.CellStore = cached
	timed := &timedStore{CachedStore: cached}
	if tracer != nil {
		cs = timed
	}

	rows := spec.Rows
	if spec.Sweep {
		g, prepared, err := sweepOnce(ctx, spec, cs, tracer, reg, &out)
		if err != nil {
			out.Err = err.Error()
			return out
		}
		if out.Digest, err = digest(g.Measurements); err != nil {
			out.Err = err.Error()
			return out
		}
		rows = prepared
	}
	if tracer == nil {
		return out
	}

	// Traced: the store layer's own counters, then the probes of the
	// layers the grid does not call by itself, then self times from spans.
	layers.set("store.puts", "count", float64(timed.puts.Load()))
	layers.set("store.put_us", "us", perOpUs(timed.putNs.Load(), timed.puts.Load()))
	layers.set("store.gets", "count", float64(timed.gets.Load()))
	layers.set("store.get_decoded_us", "us", perOpUs(timed.getNs.Load(), timed.gets.Load()))
	layers.set("harness.decode_s", "s", reg.Histogram(mStoreDecodeNs, nil).Sum()/1e9)
	if n := out.Hits + out.Misses; n > 0 {
		layers.set("harness.hit_ratio", "ratio", float64(out.Hits)/float64(n))
	}
	layers.set("harness.prepare_rows", "count", float64(len(rows)))

	_, span = obs.StartSpan(ctx, spanStoreAssembly)
	grid, err := harness.GridFromStore(cached)
	span.End()
	if err != nil {
		out.Err = err.Error()
		return out
	}
	// Slot-cache traffic over the grid and the assembly after it: in a
	// fresh process the grid's reads miss and the assembly's hit.
	stats := cached.Stats()
	layers.set("store.slot_hits", "count", float64(stats.Hits))
	layers.set("store.slot_misses", "count", float64(stats.Misses))
	layers.set("store.segments", "count", float64(store.SegmentsOf(cached)))
	if b, err := cached.DiskBytes(); err == nil {
		layers.set("store.disk_mb", "MiB", float64(b)/(1<<20))
	}
	if err := probe(ctx, grid, rows, spec.Seed, layers); err != nil {
		out.Err = err.Error()
		return out
	}
	if err := writeTrace(tracer, spec.Trace); err != nil {
		out.Err = err.Error()
		return out
	}
	self, err := selfTimes(spec.Trace + ".spans.jsonl")
	if err != nil {
		out.Err = err.Error()
		return out
	}
	out.LayerSumS = layers.fromSpans(self, timed)
	out.Layers = layers
	return out
}

// Metric names the benchmark reads from the program's registry; they are
// the harness's own names.
const (
	mStoreDecodeNs = "store_decode_ns"
)

// openCached opens a store behind the slot cache, as dwarfsweep does.
func openCached(dir string) (*store.CachedStore, error) {
	inner, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	return store.Cached(inner), nil
}

func perOpUs(totalNs, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(totalNs) / float64(n) / 1e3
}

// sweepOnce runs the grid exactly as dwarfsweep does — the event stream
// over a slot-cached store — and returns it with the rows it prepared.
func sweepOnce(ctx context.Context, spec repSpec, cs store.CellStore, tracer *obs.Tracer, reg *obs.Registry, out *repOut) (*harness.Grid, [][2]string, error) {
	gs := harness.GridSpec{
		Benchmarks: spec.Sel.Benchmarks,
		Sizes:      spec.Sel.Sizes,
		Devices:    spec.Sel.Devices,
		Options:    options(spec.Seed),
		Workers:    spec.Workers,
		Store:      cs,
		Tracer:     tracer,
		Metrics:    reg,
	}
	cellMs := make([]float64, 0, 1024)
	var prepared [][2]string
	seen := map[[2]string]bool{}
	var grid *harness.Grid
	var runErr error

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	events, err := harness.Stream(ctx, suite.New(), gs)
	if err != nil {
		return nil, nil, err
	}
	for ev := range events {
		switch ev.Kind {
		case harness.EventCellDone:
			cellMs = append(cellMs, float64(ev.Elapsed)/1e6)
			if row := [2]string{ev.Benchmark, ev.Size}; !seen[row] {
				seen[row] = true
				prepared = append(prepared, row)
			}
		case harness.EventStoreHit:
			cellMs = append(cellMs, float64(ev.Elapsed)/1e6)
		case harness.EventGridDone:
			grid, runErr = ev.Grid, ev.Err
		}
	}
	out.GridS = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	out.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	// Read before the digest, whose CSV records would dominate the peak.
	if out.RSSMB, err = peakRSSMB("/proc/self/status"); err != nil {
		return nil, nil, err
	}
	if runErr != nil {
		return nil, nil, runErr
	}
	if len(grid.Failed) > 0 {
		return nil, nil, fmt.Errorf("%d cells failed", len(grid.Failed))
	}
	out.Hits, out.Misses, out.CellMs = grid.StoreHits, grid.StoreMisses, cellMs
	return grid, prepared, nil
}

// gridRows lists a grid's benchmark × size rows in first-seen order.
func gridRows(g *harness.Grid) [][2]string {
	var rows [][2]string
	seen := map[[2]string]bool{}
	for _, m := range g.Measurements {
		if row := [2]string{m.Benchmark, m.Size}; !seen[row] {
			seen[row] = true
			rows = append(rows, row)
		}
	}
	return rows
}
