package sched

import (
	"context"
	"testing"

	"opendwarfs/internal/faults"
	"opendwarfs/internal/obs"
	"opendwarfs/internal/store"
	"opendwarfs/internal/suite"
)

// OnlineLoop with a registry and a context tracer: scheduler metrics
// agree with the loop's reported rounds, and every span — round, plan,
// repair, plus the harness spans underneath — is closed on return.
func TestOnlineLoopMetricsAndSpans(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	devices := []string{"i7-6700k", "gtx1080", "k20m"}
	benches := []string{"crc", "fft", "nw"}
	known := measure(t, benches, []string{"tiny"}, []string{"i7-6700k", "gtx1080"}, st)
	seed, err := NewCosts(known, testForest())
	if err != nil {
		t.Fatal(err)
	}
	w := testWorkload(t)
	if err := seed.EnsureProfiles(context.Background(), suite.New(), testOptions(), w); err != nil {
		t.Fatal(err)
	}
	pol, _ := LookupPolicy("heft")

	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	ctx := obs.ContextWithTracer(context.Background(), tr)
	plan := &faults.Plan{Seed: 4, Drop: []string{"k20m"}}
	res, err := OnlineLoop(ctx, LoopParams{
		Run:      chaosRunner(st, plan),
		Workload: w,
		Fleet:    fleetOf(t, devices...),
		Policy:   pol,
		Forest:   testForest(),
		Known:    known,
		Costs:    seed,
		Rounds:   2,
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	if got := reg.CounterValue("sched_rounds_total"); got != 2 {
		t.Errorf("sched_rounds_total = %d, want 2", got)
	}
	if got := reg.CounterValue("sched_replans_total"); got != 2 {
		t.Errorf("sched_replans_total = %d, want 2", got)
	}
	if got := reg.Histogram("sched_replan_ns", nil).Count(); got != 2 {
		t.Errorf("sched_replan_ns count = %d, want 2", got)
	}
	var repairs, migrated, predicted, measured int64
	for _, r := range res.Rounds {
		repairs += int64(r.Repairs)
		migrated += int64(r.MigratedTasks)
		predicted += int64(r.Predicted)
		measured += int64(r.Measured)
	}
	if repairs == 0 || migrated == 0 {
		t.Fatalf("scenario produced no repairs/migrations; nothing to assert")
	}
	if got := reg.CounterValue("sched_repairs_total"); got != repairs {
		t.Errorf("sched_repairs_total = %d, want %d", got, repairs)
	}
	if got := reg.CounterValue("sched_migrated_tasks_total"); got != migrated {
		t.Errorf("sched_migrated_tasks_total = %d, want %d", got, migrated)
	}
	if got := reg.CounterValue("sched_slots_predicted_total"); got != predicted {
		t.Errorf("sched_slots_predicted_total = %d, want %d", got, predicted)
	}
	if got := reg.CounterValue("sched_slots_measured_total"); got != measured {
		t.Errorf("sched_slots_measured_total = %d, want %d", got, measured)
	}

	if n := tr.OpenSpans(); n != 0 {
		t.Fatalf("loop left %d spans open", n)
	}
	// The context tracer reached down into the harness: the trace holds
	// round and plan spans plus the grid/cell spans of the executions.
	if tr.Spans() < 2+2+1 {
		t.Fatalf("only %d spans recorded; round/plan/harness spans missing", tr.Spans())
	}
}

// Regret gauges are exported when the loop has an oracle.
func TestOnlineLoopRegretGauges(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	devices := []string{"i7-6700k", "gtx1080"}
	benches := []string{"crc", "fft", "nw"}
	full := measure(t, benches, []string{"tiny"}, devices, st)
	truth, err := NewCosts(full, testForest())
	if err != nil {
		t.Fatal(err)
	}
	w := testWorkload(t)
	pol, _ := LookupPolicy("heft")
	oracle, err := pol.Schedule(w, fleetOf(t, devices...), truth, Options{})
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	res, err := OnlineLoop(context.Background(), LoopParams{
		Run:      chaosRunner(st, nil),
		Workload: w,
		Fleet:    fleetOf(t, devices...),
		Policy:   pol,
		Forest:   testForest(),
		Known:    full,
		Costs:    truth,
		Oracle:   oracle,
		Truth:    truth,
		Rounds:   1,
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	last := res.Rounds[len(res.Rounds)-1]
	if got := reg.Gauge("sched_regret_pct").Value(); got != last.RegretPct {
		t.Errorf("sched_regret_pct = %g, want %g", got, last.RegretPct)
	}
	if got := reg.Gauge("sched_best_regret_pct").Value(); got != last.BestRegretPct {
		t.Errorf("sched_best_regret_pct = %g, want %g", got, last.BestRegretPct)
	}
}
