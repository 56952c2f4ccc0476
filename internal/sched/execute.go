package sched

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"opendwarfs/internal/harness"
	"opendwarfs/internal/obs"
	"opendwarfs/internal/predict"
	"opendwarfs/internal/sim"
)

// Runner measures one benchmark × size × device selection and returns its
// grid — the shape of opendwarfs.Session.RunGrid (and of harness.RunGrid
// with a registry bound). Like those, it returns the grid of the cells
// that completed on every stop, alongside the error, and no grid for a
// selection it cannot plan. A store-backed runner persists every measured
// cell and store-hits the already-measured ones, which is what makes the
// online loop converge.
type Runner func(ctx context.Context, benchmarks, sizes, devices []string) (*harness.Grid, error)

// cellGroup is one exact selection a schedule expands to: a single
// benchmark × size on the devices its tasks were placed on (one bench ×
// one size × D devices is a cross product of exactly D cells, so nothing
// outside the schedule gets measured).
type cellGroup struct {
	bench, size string
	devices     []string
}

// cellGroups lists the schedule's distinct cells grouped per (benchmark,
// size), rows and devices sorted for a deterministic execution order.
func cellGroups(s *Schedule) []cellGroup {
	devs := map[string]map[string]bool{}
	for i := range s.Slots {
		key := rowKey(s.Slots[i].Benchmark, s.Slots[i].Size)
		if devs[key] == nil {
			devs[key] = map[string]bool{}
		}
		devs[key][s.Slots[i].Device] = true
	}
	keys := make([]string, 0, len(devs))
	for k := range devs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	groups := make([]cellGroup, 0, len(keys))
	for _, k := range keys {
		bench, size, _ := strings.Cut(k, "\x00")
		g := cellGroup{bench: bench, size: size}
		for d := range devs[k] {
			g.devices = append(g.devices, d)
		}
		sort.Strings(g.devices)
		groups = append(groups, g)
	}
	return groups
}

// Execute measures every distinct cell of the schedule through the
// runner, one selection per (benchmark, size), and returns the merged
// grid. With a store-backed runner the already-measured cells are store
// hits and the rest persist, so the next scheduling round resolves them as
// measured. Cancelling ctx or a failing cell stops the execution; the
// returned grid holds whatever completed, alongside the error.
func Execute(ctx context.Context, run Runner, s *Schedule) (*harness.Grid, error) {
	groups := cellGroups(s)
	// The span (and, through the derived ctx, the cell spans of each
	// group's grid run) lands on whatever tracer the caller put in ctx
	// via obs.ContextWithTracer; without one this is a no-op.
	ctx, span := obs.StartSpan(ctx, "sched.execute", obs.Int("groups", len(groups)))
	defer span.End()
	out := &harness.Grid{}
	for _, g := range groups {
		sub, err := run(ctx, []string{g.bench}, []string{g.size}, g.devices)
		out.Merge(sub)
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// ExecOutcome is the result of a resilient execution: the merged grid of
// everything measured, the schedule actually in force at the end (the
// original, or its latest repair) and the fault accounting.
type ExecOutcome struct {
	Grid *harness.Grid
	// Schedule is the final schedule: the input when no device died, the
	// last repaired schedule otherwise.
	Schedule *Schedule
	// Quarantined lists the devices that died during this execution,
	// sorted. Repairs counts replan passes; MigratedTasks the slots moved
	// off dead devices across them.
	Quarantined   []string
	Repairs       int
	MigratedTasks int
	// Failed lists the cells that exhausted their attempts on a device
	// that stayed up (failures on quarantined devices are accounted by the
	// migration instead). Grid.Retries counts the retries of every pass.
	Failed []harness.FailedCell
}

// ExecuteResilient measures the schedule's cells and reacts to device
// dropouts: when an execution pass quarantines devices, the schedule's
// stranded slots are migrated onto the survivors via Schedule.Repair
// (policy and costs as at planning time) and the repaired schedule is
// re-executed — with a store-backed runner the surviving cells are store
// hits, so only the migrated work is re-measured. The loop runs until a
// pass quarantines nothing new; each pass kills at least one device, so
// it is bounded by the fleet size. Cancellation and hard measurement
// errors return the outcome so far alongside the error.
func ExecuteResilient(ctx context.Context, run Runner, s *Schedule, pol Policy, costs CostProvider, opt Options) (*ExecOutcome, error) {
	out := &ExecOutcome{Grid: &harness.Grid{}, Schedule: s}
	deadSet := map[string]bool{}
	cur := s
	for pass := 0; ; pass++ {
		if pass > len(s.fleet) {
			return out, fmt.Errorf("sched: repair loop exceeded the fleet size (%d passes)", pass)
		}
		g, err := Execute(ctx, run, cur)
		out.Grid.Merge(g)
		out.Schedule = cur
		if err != nil {
			return out, err
		}
		var fresh []string
		for _, d := range g.Quarantined {
			if !deadSet[d] {
				deadSet[d] = true
				fresh = append(fresh, d)
			}
		}
		if len(fresh) == 0 {
			break
		}
		freshSet := map[string]bool{}
		for _, d := range fresh {
			freshSet[d] = true
		}
		for i := range cur.Slots {
			if freshSet[cur.Slots[i].Device] {
				out.MigratedTasks++
			}
		}
		out.Quarantined = unionSorted(out.Quarantined, fresh)
		_, rspan := obs.StartSpan(ctx, "sched.repair",
			obs.Int("pass", pass), obs.Int("dead", len(out.Quarantined)))
		repaired, rerr := cur.Repair(out.Quarantined, pol, costs, opt)
		rspan.End()
		if rerr != nil {
			return out, rerr
		}
		out.Repairs++
		cur = repaired
	}
	for _, f := range out.Grid.Failed {
		if !deadSet[f.Device] {
			out.Failed = append(out.Failed, f)
		}
	}
	return out, nil
}

// Round is one online-loop iteration: the schedule planned from the
// knowledge available at its start, and — when the loop has an oracle —
// its regret after execution.
type Round struct {
	Index    int
	Schedule *Schedule
	// Predicted and Measured mirror the schedule's cost sources: how much
	// of this round's plan rested on predictions.
	Predicted, Measured int
	// ActualNs is the schedule retimed under measured costs — exact after
	// execution, since execution measures precisely the schedule's cells.
	// OracleNs is the same policy run on fully measured costs; RegretPct
	// compares the two. BestRegretPct is the incumbent: the lowest regret
	// of any round so far, i.e. the regret of the best schedule the loop
	// has found — non-increasing by construction. All four are NaN-free
	// only when the loop was given an oracle.
	ActualNs, OracleNs       float64
	RegretPct, BestRegretPct float64
	// StoreHits/StoreMisses of this round's execution: how much was
	// re-measured versus served from the store.
	StoreHits, StoreMisses int
	// Fault accounting for the round's execution: the devices that died
	// (sorted), the repair passes and migrated slots they forced, the
	// retry total and the cells that failed on surviving devices. The
	// round's Schedule is the repaired one when Repairs > 0.
	Quarantined   []string
	Repairs       int
	MigratedTasks int
	Retries       int
	FailedCells   int
}

// LoopResult is the outcome of an online scheduling loop.
type LoopResult struct {
	Rounds []Round
	// Grid is the final knowledge grid: the initial cells plus everything
	// the rounds executed.
	Grid *harness.Grid
	// Quarantined accumulates every device that died across the rounds,
	// sorted; later rounds schedule on the shrunk fleet.
	Quarantined []string
}

// LoopParams configures OnlineLoop.
type LoopParams struct {
	Run      Runner
	Workload *Workload
	Fleet    []*sim.DeviceSpec
	Policy   Policy
	// Forest configures the per-round cost-model training.
	Forest predict.Config
	// Sched tunes the policy (energy budget etc.).
	Sched Options
	// Known seeds the loop's knowledge: the measured cells the first
	// round's cost model trains on (at least predict's minimum). The loop
	// merges executed cells into a copy; the caller's grid is not mutated.
	Known *harness.Grid
	// Costs, when non-nil, serves as round 0's provider (it must have been
	// built over Known — re-training on the same cells would be
	// bitwise-identical anyway) and donates its characterisations
	// (EnsureProfiles results) to every later round's re-trained provider,
	// so workload rows with no measured cell anywhere can still be
	// scheduled in round 0.
	Costs *Costs
	// Oracle, when non-nil, is the measured-cost reference schedule; the
	// loop then reports per-round regret. Truth must resolve every
	// workload × fleet cell as measured (the grid the oracle was built
	// on). Leave both nil to run without regret accounting.
	Oracle *Schedule
	Truth  CostProvider
	Rounds int
	// Metrics, when non-nil, receives the loop's scheduler metrics:
	// sched_rounds_total, sched_replans_total, sched_replan_ns (cost
	// re-training + policy run per round), sched_slots_predicted_total /
	// sched_slots_measured_total (cost sources of each round's plan),
	// sched_repairs_total / sched_migrated_tasks_total, and — with an
	// oracle — the sched_regret_pct / sched_best_regret_pct gauges.
	// Harness-level metrics flow through the Runner's own registry
	// (e.g. the session's WithMetrics), not through this field.
	Metrics *obs.Registry
}

// Online-loop metric names, one const per series (obsnames-checked).
const (
	mRoundsTotal         = "sched_rounds_total"
	mReplanNs            = "sched_replan_ns"
	mReplansTotal        = "sched_replans_total"
	mSlotsPredictedTotal = "sched_slots_predicted_total"
	mSlotsMeasuredTotal  = "sched_slots_measured_total"
	mRepairsTotal        = "sched_repairs_total"
	mMigratedTasksTotal  = "sched_migrated_tasks_total"
	mRegretPct           = "sched_regret_pct"
	mBestRegretPct       = "sched_best_regret_pct"
)

// OnlineLoop alternates schedule → execute → re-train for the configured
// number of rounds. Execution flows through the runner, so with a store
// attached each round's measured cells persist and the next round's cost
// provider resolves them as measured — predictions drain out of the plan
// and, with an oracle configured, the incumbent regret is non-increasing.
func OnlineLoop(ctx context.Context, p LoopParams) (*LoopResult, error) {
	if p.Rounds <= 0 {
		return nil, fmt.Errorf("sched: non-positive round count %d", p.Rounds)
	}
	if (p.Oracle == nil) != (p.Truth == nil) {
		return nil, fmt.Errorf("sched: Oracle and Truth must be set together")
	}
	known := &harness.Grid{}
	if p.Known != nil {
		known.Merge(p.Known)
	}
	res := &LoopResult{Grid: known}
	best := 0.0
	prev := p.Costs
	// Quarantined devices drop out of the scheduling fleet for every later
	// round.
	fleet := p.Fleet
	for r := 0; r < p.Rounds; r++ {
		rctx, rspan := obs.StartSpan(ctx, "sched.round", obs.Int("round", r))
		p.Metrics.Counter(mRoundsTotal).Inc()
		// Replanning = cost re-training + the policy run; both are timed
		// together since that is the latency a replan costs the loop.
		//lint:allow detrand replan latency histogram measures this host, not the simulation
		planStart := time.Now()
		_, pspan := obs.StartSpan(rctx, "sched.plan")
		costs := p.Costs
		if r > 0 || costs == nil {
			var err error
			if costs, err = NewCosts(known, p.Forest); err != nil {
				pspan.End()
				rspan.End()
				return res, fmt.Errorf("sched: round %d: %w", r, err)
			}
			costs.AdoptProfiles(prev)
		}
		prev = costs
		if missing := costs.MissingRows(p.Workload); len(missing) > 0 {
			pspan.End()
			rspan.End()
			return res, fmt.Errorf("sched: round %d: no measurements or characterisation for %v", r, missing)
		}
		s, err := p.Policy.Schedule(p.Workload, fleet, costs, p.Sched)
		pspan.End()
		//lint:allow detrand replan latency histogram measures this host, not the simulation
		p.Metrics.Histogram(mReplanNs, nil).Observe(float64(time.Since(planStart)))
		p.Metrics.Counter(mReplansTotal).Inc()
		if err != nil {
			rspan.End()
			return res, fmt.Errorf("sched: round %d: %w", r, err)
		}
		outc, err := ExecuteResilient(rctx, p.Run, s, p.Policy, costs, p.Sched)
		rspan.End()
		known.Merge(outc.Grid)
		if err != nil {
			return res, fmt.Errorf("sched: round %d execution: %w", r, err)
		}
		s = outc.Schedule
		if len(outc.Quarantined) > 0 {
			if fleet = Survivors(fleet, outc.Quarantined); len(fleet) == 0 {
				return res, fmt.Errorf("sched: round %d: every fleet device is quarantined", r)
			}
			res.Quarantined = unionSorted(res.Quarantined, outc.Quarantined)
		}
		// Slot-source counters track the schedule in force at round end
		// (the repaired one after a quarantine), matching Round's report.
		p.Metrics.Counter(mSlotsPredictedTotal).Add(int64(s.Predicted))
		p.Metrics.Counter(mSlotsMeasuredTotal).Add(int64(s.Measured))
		p.Metrics.Counter(mRepairsTotal).Add(int64(outc.Repairs))
		p.Metrics.Counter(mMigratedTasksTotal).Add(int64(outc.MigratedTasks))
		round := Round{
			Index: r, Schedule: s,
			Predicted: s.Predicted, Measured: s.Measured,
			StoreHits: outc.Grid.StoreHits, StoreMisses: outc.Grid.StoreMisses,
			Quarantined: outc.Quarantined, Repairs: outc.Repairs,
			MigratedTasks: outc.MigratedTasks, Retries: outc.Grid.Retries,
			FailedCells: len(outc.Failed),
		}
		if p.Oracle != nil {
			actual, err := s.Retime(p.Truth)
			if err != nil {
				return res, fmt.Errorf("sched: round %d retime: %w", r, err)
			}
			round.ActualNs = actual.MakespanNs
			round.OracleNs = p.Oracle.MakespanNs
			round.RegretPct = Regret(actual, p.Oracle)
			if r == 0 || round.RegretPct < best {
				best = round.RegretPct
			}
			round.BestRegretPct = best
			p.Metrics.Gauge(mRegretPct).Set(round.RegretPct)
			p.Metrics.Gauge(mBestRegretPct).Set(best)
		}
		res.Rounds = append(res.Rounds, round)
	}
	return res, nil
}
