package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run accumulates one invocation's operations and metrics. An untraced run
// keeps only end-to-end metrics and a traced run only per-layer ones, so
// each code path can report both kinds unconditionally.
type run struct {
	cfg               config
	attempted, failed int
	metrics           map[string]metric
	timings           map[string]summary
}

func newRun(cfg config) *run {
	return &run{cfg: cfg, metrics: map[string]metric{}, timings: map[string]summary{}}
}

// maxLoggedFailures bounds how many failed operations are described on
// standard error; the count in the result is always complete.
const maxLoggedFailures = 10

// op records one attempted operation; a non-nil err marks it failed.
func (r *run) op(err error) {
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if r.failed <= maxLoggedFailures {
		fmt.Fprintln(os.Stderr, "bench: failed op:", err)
	}
}

func (r *run) setE2E(name, unit string, v float64) {
	if !r.cfg.trace {
		r.metrics[name] = metric{Value: v, Unit: unit}
	}
}

// timingE2E reports an end-to-end timing as its median, keeping the
// quartiles and sample count for the detail line.
func (r *run) timingE2E(name, unit string, xs []float64) {
	if !r.cfg.trace {
		r.timings[name] = summarize(xs)
		r.setE2E(name, unit, median(xs))
	}
}

// detail keeps a distribution for the detail line only: the raw,
// uncalibrated times behind a calibrated metric, and the probe times.
func (r *run) detail(name string, xs []float64) {
	if !r.cfg.trace {
		r.timings[name] = summarize(xs)
	}
}

func (r *run) setLayer(name, unit string, v float64) {
	if r.cfg.trace {
		r.metrics[name] = metric{Value: v, Unit: unit}
	}
}

func (r *run) result() result {
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// loadDeclared reads the metrics BENCHMARK.json declares for the mode:
// the end-to-end list untraced, the per-layer list traced.
func loadDeclared(path string, trace bool) ([]declaredMetric, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read metric declarations (run from the repository root): %w", err)
	}
	var doc struct {
		EndToEnd []declaredMetric `json:"end_to_end"`
		PerLayer []declaredMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if trace {
		return doc.PerLayer, nil
	}
	return doc.EndToEnd, nil
}

// conform makes the output match the declarations exactly. A per-layer
// metric of a layer the workload does not exercise reads 0, as its work
// count does; a missing end-to-end metric, an undeclared metric or a unit
// that disagrees with its declaration is a bug in the benchmark.
func (r *run) conform(declared []declaredMetric) error {
	want := map[string]string{}
	for _, d := range declared {
		want[d.Name] = d.Unit
		if _, ok := r.metrics[d.Name]; !ok {
			if !r.cfg.trace {
				return fmt.Errorf("end-to-end metric %s was not measured", d.Name)
			}
			r.metrics[d.Name] = metric{Unit: d.Unit}
		}
	}
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		unit, ok := want[name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		case unit != r.metrics[name].Unit:
			return fmt.Errorf("metric %s has unit %s, BENCHMARK.json declares %s", name, r.metrics[name].Unit, unit)
		}
	}
	return nil
}
