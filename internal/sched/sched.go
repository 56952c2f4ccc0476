// Package sched is the prediction-guided heterogeneous scheduler the
// paper's §7 motivates: "discover methods for choosing the best device for
// a particular computational task, for example to support scheduling
// decisions under time and/or energy constraints." It turns the AIWC
// runtime predictor (internal/predict) from a report into a
// decision-maker: given a batch of tasks (benchmark × size, with optional
// per-task deadlines and energy budgets) and a device fleet from the sim
// catalogue, it places every task on a device and predicts the resulting
// timeline.
//
// The pipeline is costs → policy → schedule → (optionally) execution:
//
//   - A cost provider (costs.go) resolves each (task, device) cell: from a
//     measured grid cell when one exists, otherwise from random forests
//     trained over the measured cells — one over log kernel time (the §5
//     model) and one over log energy. Every resolved cost is flagged with
//     its source, so a schedule knows how much of it rests on predictions.
//   - A policy (policy.go) maps the workload onto the fleet: round-robin
//     and fastest-device baselines, a greedy earliest-finish-time
//     scheduler, a HEFT-style list scheduler, and an energy-aware variant
//     that minimises Joules subject to a makespan budget.
//   - A deterministic discrete-event evaluator (schedule.go) turns the
//     placement into a Schedule: per-device timelines, makespan, energy
//     (active and idle), deadline misses — and, re-timed under measured
//     costs, the regret against a measured-cost oracle.
//   - Execute (execute.go) runs a schedule's cells through a Runner
//     (opendwarfs.Session.RunGrid or harness.RunGrid); with a store
//     attached every measured cell persists, so the next scheduling round
//     resolves it as measured instead of predicted. OnlineLoop iterates
//     schedule → execute → re-train, shrinking oracle regret as
//     predictions are replaced by measurements.
//
// Everything is deterministic: schedules are pure functions of (workload,
// fleet, costs, policy options), cost models are bitwise-identical at any
// worker count (predict's guarantee), and ties break on stable orders —
// task index and fleet order — never on map iteration.
package sched

import (
	"fmt"
	"slices"

	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/sim"
)

// Task is one schedulable unit: a single run of a benchmark at a size,
// optionally constrained by a completion deadline and an energy budget.
type Task struct {
	// ID is unique within the workload ("fft/large#2" for spec-expanded
	// tasks).
	ID        string
	Benchmark string
	Size      string
	// DeadlineNs, when positive, is the latest acceptable finish time
	// relative to the schedule's start; the evaluator counts misses.
	DeadlineNs float64
	// EnergyBudgetJ, when positive, caps the energy one execution of this
	// task should spend; the evaluator counts overruns.
	EnergyBudgetJ float64
}

// Workload is the batch of tasks one scheduling round places.
type Workload struct {
	Tasks []Task
}

// Rows returns the distinct (benchmark, size) pairs of the workload in
// first-seen order — the cells a cost provider must be able to resolve.
func (w *Workload) Rows() [][2]string {
	seen := map[[2]string]bool{}
	var out [][2]string
	for i := range w.Tasks {
		k := [2]string{w.Tasks[i].Benchmark, w.Tasks[i].Size}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// TaskSpec is the wire form of one workload entry: a benchmark × size run
// repeated Count times. It is the element of the dwarfsched -workload JSON
// file and of the dwarfserve POST /v1/schedule body.
type TaskSpec struct {
	Benchmark string `json:"benchmark"`
	Size      string `json:"size"`
	// Count expands into that many identical tasks; 0 means 1.
	Count int `json:"count,omitempty"`
	// DeadlineMs is the optional per-task deadline in milliseconds.
	DeadlineMs float64 `json:"deadline_ms,omitempty"`
	// EnergyBudgetJ is the optional per-task energy budget in Joules.
	EnergyBudgetJ float64 `json:"energy_budget_j,omitempty"`
}

// WorkloadSpec is the serialisable workload description.
type WorkloadSpec struct {
	Tasks []TaskSpec `json:"tasks"`
}

// MaxWorkloadTasks bounds what one spec may expand to. The cap is far
// above any realistic batch; it exists because counts multiply and
// /v1/schedule is an open endpoint — one request must not be able to
// allocate an unbounded task list.
const MaxWorkloadTasks = 1 << 16

// Expand validates a spec against the registry — unknown benchmarks and
// unsupported sizes fail with the sorted list of valid values, the
// planCells convention — and expands counts into concrete tasks with
// stable IDs.
func (s *WorkloadSpec) Expand(reg *dwarfs.Registry) (*Workload, error) {
	if len(s.Tasks) == 0 {
		return nil, fmt.Errorf("sched: empty workload: want at least one task")
	}
	w := &Workload{}
	for i, ts := range s.Tasks {
		b, err := reg.Get(ts.Benchmark)
		if err != nil {
			return nil, fmt.Errorf("sched: task %d: %w", i, err)
		}
		if !dwarfs.SupportsSize(b, ts.Size) {
			return nil, fmt.Errorf("sched: task %d: %s does not support size %q (valid: %v)",
				i, ts.Benchmark, ts.Size, b.Sizes())
		}
		if ts.Count < 0 {
			return nil, fmt.Errorf("sched: task %d: negative count %d", i, ts.Count)
		}
		if ts.Count > MaxWorkloadTasks || len(w.Tasks)+ts.Count > MaxWorkloadTasks {
			return nil, fmt.Errorf("sched: workload expands past %d tasks at task %d", MaxWorkloadTasks, i)
		}
		if ts.DeadlineMs < 0 || ts.EnergyBudgetJ < 0 {
			return nil, fmt.Errorf("sched: task %d: negative deadline or energy budget", i)
		}
		count := ts.Count
		if count == 0 {
			count = 1
		}
		for k := 0; k < count; k++ {
			w.Tasks = append(w.Tasks, Task{
				ID:            fmt.Sprintf("%s/%s#%d", ts.Benchmark, ts.Size, len(w.Tasks)),
				Benchmark:     ts.Benchmark,
				Size:          ts.Size,
				DeadlineNs:    ts.DeadlineMs * 1e6,
				EnergyBudgetJ: ts.EnergyBudgetJ,
			})
		}
	}
	return w, nil
}

// Fleet resolves device IDs into catalogue specs; empty means the whole
// catalogue. Unknown IDs fail with the sorted catalogue (sim.LookupAll),
// and repeated IDs are rejected: the evaluator would treat them as extra
// physical cards and report impossible makespans.
func Fleet(ids []string) ([]*sim.DeviceSpec, error) {
	if len(ids) == 0 {
		return sim.Devices(), nil
	}
	fleet, err := sim.LookupAll(ids)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for _, d := range fleet {
		if seen[d.ID] {
			return nil, fmt.Errorf("sched: duplicate fleet device %q", d.ID)
		}
		seen[d.ID] = true
	}
	return fleet, nil
}

// Survivors returns the fleet without the dead devices, in fleet order.
// The fleet itself is not modified; an empty result is the caller's to
// report.
func Survivors(fleet []*sim.DeviceSpec, dead []string) []*sim.DeviceSpec {
	kept := make([]*sim.DeviceSpec, 0, len(fleet))
	for _, d := range fleet {
		if !slices.Contains(dead, d.ID) {
			kept = append(kept, d)
		}
	}
	return kept
}
