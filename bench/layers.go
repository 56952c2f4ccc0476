package main

// The traced mode's per-layer numbers. The grid's own spans (harness.grid,
// harness.cell, harness.prepare, harness.measure) come from the program's
// tracer via GridSpec.Tracer. The layers the grid does not call on its own
// — dataset generation, the phases inside Prepare, predict and sched — are
// probed here by calling their public functions under benchmark-side spans.
// Every *_s layer metric is a self time computed from the span JSONL.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"opendwarfs/internal/data"
	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/dwarfs/csr"
	"opendwarfs/internal/harness"
	"opendwarfs/internal/obs"
	"opendwarfs/internal/opencl"
	"opendwarfs/internal/predict"
	"opendwarfs/internal/sched"
	"opendwarfs/internal/suite"
)

// Span names: the program's, then the benchmark's own.
const (
	spanGrid    = "harness.grid"
	spanCell    = "harness.cell"
	spanPrepare = "harness.prepare"
	spanMeasure = "harness.measure"

	spanStoreOpen     = "store.open"
	spanStoreAssembly = "store.assembly"
	spanCreateCSR     = "data.create_csr"
	spanNew           = "dwarfs.new"
	spanSetup         = "dwarfs.setup"
	spanCharacterise  = "dwarfs.characterise"
	spanFunctional    = "dwarfs.functional"
	spanVerify        = "dwarfs.verify"
	spanFromGrid      = "predict.from_grid"
	spanTrain         = "predict.train"
	spanInfer         = "predict.infer"
	spanCosts         = "sched.costs"
	spanPlan          = "sched.plan"
)

// planReps repeats each policy's plan so a microsecond-scale call is timed
// over many calls.
const planReps = 20

// schedulePolicies are the policies whose planning time is reported.
var schedulePolicies = []string{"heft", "greedy", "energy"}

type layerSet map[string]metric

func (l layerSet) set(name, unit string, v float64) { l[name] = metric{Value: v, Unit: unit} }

// probe calls the layers below the grid once each, under spans.
func probe(ctx context.Context, grid *harness.Grid, rows [][2]string, seed int64, layers layerSet) error {
	var before, after runtime.MemStats

	// Dataset generation: CreateCSR at csr's four sizes.
	bench := csr.New()
	runtime.ReadMemStats(&before)
	for _, size := range bench.Sizes() {
		n, err := strconv.Atoi(bench.ScaleParameter(size))
		if err != nil {
			return err
		}
		_, span := obs.StartSpan(ctx, spanCreateCSR, obs.String("size", size))
		_, err = data.CreateCSR(n, csr.Density, seed)
		span.End()
		if err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	layers.set("data.create_csr_mb", "MiB", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))

	// Prepare's phases, replayed once per row the workload prepared.
	reg := suite.New()
	opt := options(seed)
	functional := 0
	runtime.ReadMemStats(&before)
	for _, row := range rows {
		b, err := reg.Get(row[0])
		if err != nil {
			return err
		}
		ran, err := replayPrepare(ctx, b, row[1], opt)
		if err != nil {
			return fmt.Errorf("replay %s/%s: %w", row[0], row[1], err)
		}
		if ran {
			functional++
		}
	}
	runtime.ReadMemStats(&after)
	layers.set("dwarfs.prepare_mb", "MiB", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	layers.set("dwarfs.functional_rows", "count", float64(functional))

	// predict: the dataset and forest dwarfserve builds, then one
	// prediction per stored cell as /v1/predict computes it.
	cfg := predict.DefaultConfig()
	_, span := obs.StartSpan(ctx, spanFromGrid)
	ds, err := predict.FromGrid(grid)
	span.End()
	if err != nil {
		return err
	}
	_, span = obs.StartSpan(ctx, spanTrain)
	forest, err := predict.Train(ds, cfg)
	span.End()
	if err != nil {
		return err
	}
	layers.set("predict.rows", "count", float64(len(ds.Rows)))
	_, span = obs.StartSpan(ctx, spanInfer)
	start := time.Now()
	for _, m := range grid.Measurements {
		forest.PredictNs(predict.Features(m.Profiles, m.KernelLaunches, m.Device))
	}
	layers.set("predict.infer_us", "us", float64(time.Since(start))/float64(len(grid.Measurements))/1e3)
	span.End()

	// sched: the cost provider, then each policy planning the fixed
	// three-task workload over the whole catalogue.
	_, span = obs.StartSpan(ctx, spanCosts)
	costs, err := sched.NewCosts(grid, cfg)
	span.End()
	if err != nil {
		return err
	}
	w, err := (&sched.WorkloadSpec{Tasks: scheduleTasks(gridRows(grid))}).Expand(reg)
	if err != nil {
		return err
	}
	fleet, err := sched.Fleet(nil)
	if err != nil {
		return err
	}
	for _, name := range schedulePolicies {
		pol, err := sched.LookupPolicy(name)
		if err != nil {
			return err
		}
		_, span = obs.StartSpan(ctx, spanPlan, obs.String("policy", name))
		start := time.Now()
		for i := 0; i < planReps; i++ {
			if _, err = pol.Schedule(w, fleet, costs, sched.Options{}); err != nil {
				break
			}
		}
		layers.set("sched.plan_us."+name, "us", float64(time.Since(start))/planReps/1e3)
		span.End()
		if err != nil {
			return err
		}
	}
	return nil
}

// scheduleTasks is the fixed three-task workload every schedule request
// and plan probe uses: the first, middle and last row of the grid.
func scheduleTasks(rows [][2]string) []sched.TaskSpec {
	pick := []int{0, len(rows) / 2, len(rows) - 1}
	tasks := make([]sched.TaskSpec, 0, len(pick))
	for _, i := range pick {
		tasks = append(tasks, sched.TaskSpec{Benchmark: rows[i][0], Size: rows[i][1]})
	}
	return tasks
}

// replayPrepare runs harness.Prepare's sequence through the public
// benchmark interface, one span per phase, and reports whether the row
// fitted the functional budget.
func replayPrepare(ctx context.Context, b dwarfs.Benchmark, size string, opt harness.Options) (bool, error) {
	_, span := obs.StartSpan(ctx, spanNew)
	inst, err := b.New(size, opt.Seed)
	span.End()
	if err != nil {
		return false, err
	}
	dev := opencl.AllDevices()[0]
	clctx, err := opencl.NewContext(dev)
	if err != nil {
		return false, err
	}
	q, err := opencl.NewQueue(clctx, dev)
	if err != nil {
		return false, err
	}

	_, span = obs.StartSpan(ctx, spanSetup)
	err = inst.Setup(clctx, q)
	if err == nil {
		err = dwarfs.CheckFootprint(inst, clctx)
	}
	q.DrainEvents()
	span.End()
	if err != nil {
		return false, err
	}

	_, span = obs.StartSpan(ctx, spanCharacterise)
	q.SetSimulateOnly(true)
	err = inst.Iterate(q)
	ops := 0.0
	for _, ev := range q.DrainEvents() {
		if ev.Kind == opencl.CommandKernel {
			ops += ev.Profile.TotalOps()
		}
	}
	span.End()
	if err != nil || ops > opt.MaxFunctionalOps {
		return false, err
	}

	_, span = obs.StartSpan(ctx, spanFunctional)
	q.SetSimulateOnly(false)
	q.ResetTimeline()
	err = inst.Iterate(q)
	q.DrainEvents()
	span.End()
	if err != nil || !opt.Verify {
		return err == nil, err
	}
	_, span = obs.StartSpan(ctx, spanVerify)
	err = inst.Verify()
	span.End()
	return err == nil, err
}

func writeTrace(tr *obs.Tracer, prefix string) error {
	write := func(path string, fn func(*os.File) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(prefix+".trace.json", func(f *os.File) error { return tr.WriteChromeTrace(f) }); err != nil {
		return err
	}
	return write(prefix+".spans.jsonl", func(f *os.File) error { return tr.WriteJSONL(f) })
}

// selfTime is one span name's total self time and span count.
type selfTime struct {
	s float64
	n int
}

// selfTimes reads a span JSONL file and sums each span name's self time:
// its duration minus the part its child spans cover, never below zero.
// Children that overlap one another cover more than their parent's
// duration; the parent then has no self time, and the children's excess
// stays in the sum, where checkLayerSum sees it.
func selfTimes(path string) (map[string]selfTime, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	type span struct {
		ID     uint64 `json:"id"`
		Parent uint64 `json:"parent"`
		Name   string `json:"name"`
		DurNs  int64  `json:"dur_ns"`
	}
	var spans []span
	children := map[uint64]int64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		spans = append(spans, s)
		if s.Parent != 0 {
			children[s.Parent] += s.DurNs
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := map[string]selfTime{}
	for _, s := range spans {
		t := out[s.Name]
		t.s += float64(max(0, s.DurNs-children[s.ID])) / 1e9
		t.n++
		out[s.Name] = t
	}
	return out, nil
}

// fromSpans sets the self-time layer metrics and returns the sum of the
// grid's layers, which must account for the traced grid's wall time. The
// store calls run inside the grid's spans, so their time, measured by
// timedStore, is moved from the dispatch self time to the store layer.
func (l layerSet) fromSpans(self map[string]selfTime, timed *timedStore) float64 {
	storeS := float64(timed.putNs.Load()+timed.getNs.Load()) / 1e9
	dispatch := max(0, self[spanGrid].s+self[spanCell].s-storeS)
	prepare, measure := self[spanPrepare].s, self[spanMeasure].s
	if self[spanGrid].n > 0 {
		l.set("harness.dispatch_s", "s", dispatch)
		l.set("harness.prepare_s", "s", prepare)
		l.set("harness.measure_s", "s", measure)
		l.set("harness.measure_cells", "count", float64(self[spanMeasure].n))
	}
	for metricName, spanName := range map[string]string{
		"store.open_s":          spanStoreOpen,
		"store.assembly_s":      spanStoreAssembly,
		"data.create_csr_s":     spanCreateCSR,
		"dwarfs.new_s":          spanNew,
		"dwarfs.setup_s":        spanSetup,
		"dwarfs.characterise_s": spanCharacterise,
		"dwarfs.functional_s":   spanFunctional,
		"dwarfs.verify_s":       spanVerify,
		"predict.from_grid_s":   spanFromGrid,
		"predict.train_s":       spanTrain,
		"sched.costs_s":         spanCosts,
	} {
		l.set(metricName, "s", self[spanName].s)
	}
	spans := 0
	for _, t := range self {
		spans += t.n
	}
	l.set("obs.spans", "count", float64(spans))
	return dispatch + prepare + measure + storeS
}
