package sched

import (
	"context"
	"errors"
	"testing"

	"opendwarfs/internal/faults"
	"opendwarfs/internal/harness"
	"opendwarfs/internal/store"
	"opendwarfs/internal/suite"
)

// chaosRunner is storeRunner with a fault plan and retry policy bound —
// the test stand-in for a Session configured via WithFaults/WithRetry.
func chaosRunner(st *store.Store, plan *faults.Plan) Runner {
	return func(ctx context.Context, benches, sizes, devices []string) (*harness.Grid, error) {
		return harness.RunGrid(ctx, suite.New(), harness.GridSpec{
			Benchmarks: benches,
			Sizes:      sizes,
			Devices:    devices,
			Options:    testOptions(),
			Workers:    2,
			Store:      st,
			Faults:     plan,
			Retry:      harness.RetryPolicy{MaxAttempts: 3},
		})
	}
}

func TestRepairMigratesOffDeadDevice(t *testing.T) {
	w := testWorkload(t)
	fleet := fleetOf(t, "i7-6700k", "gtx1080", "k20m")
	costs := fakeCosts{
		timeNs:  map[string]float64{"i7-6700k": 3e6, "gtx1080": 1e6, "k20m": 2e6},
		energyJ: map[string]float64{"i7-6700k": 1, "gtx1080": 2, "k20m": 1.5},
	}
	pol, _ := LookupPolicy("heft")
	s, err := pol.Schedule(w, fleet, costs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	onDead := 0
	for _, sl := range s.Slots {
		if sl.Device == "gtx1080" {
			onDead++
		}
	}
	if onDead == 0 {
		t.Fatal("test premise broken: HEFT placed nothing on the fastest device")
	}

	r, err := s.Repair([]string{"gtx1080"}, pol, costs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Slots) != len(w.Tasks) {
		t.Fatalf("repaired schedule has %d slots, want all %d tasks", len(r.Slots), len(w.Tasks))
	}
	seen := map[string]bool{}
	for _, sl := range r.Slots {
		if sl.Device == "gtx1080" {
			t.Fatalf("task %s still on the dead device", sl.TaskID)
		}
		if seen[sl.TaskID] {
			t.Fatalf("task %s placed twice", sl.TaskID)
		}
		seen[sl.TaskID] = true
	}
	if len(r.Lanes) != 2 {
		t.Fatalf("repaired fleet has %d lanes, want the 2 survivors", len(r.Lanes))
	}
	if r.Policy != "heft+repair" {
		t.Fatalf("repaired policy = %q, want heft+repair", r.Policy)
	}
	if r.MakespanNs <= s.MakespanNs {
		t.Fatalf("losing the fastest device did not cost makespan: %.0f -> %.0f", s.MakespanNs, r.MakespanNs)
	}

	// No overlap between dead list and fleet: the schedule is unchanged.
	same, err := s.Repair([]string{"titanx"}, pol, costs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if same != s {
		t.Fatal("repair with no dead fleet device must return the schedule unchanged")
	}
}

func TestRepairAllDeadErrors(t *testing.T) {
	w := testWorkload(t)
	fleet := fleetOf(t, "i7-6700k", "gtx1080")
	costs := fakeCosts{
		timeNs:  map[string]float64{"i7-6700k": 3e6, "gtx1080": 1e6},
		energyJ: map[string]float64{"i7-6700k": 1, "gtx1080": 2},
	}
	pol, _ := LookupPolicy("heft")
	s, err := pol.Schedule(w, fleet, costs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Repair([]string{"i7-6700k", "gtx1080"}, pol, costs, Options{}); err == nil {
		t.Fatal("repair with zero survivors must error")
	}
}

func TestExecuteResilientMigratesAroundDropout(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	devices := []string{"i7-6700k", "gtx1080", "k20m"}
	g := measure(t, []string{"crc", "fft", "nw"}, []string{"tiny"}, devices, st)
	costs, err := NewCosts(g, testForest())
	if err != nil {
		t.Fatal(err)
	}
	w := testWorkload(t)
	pol, _ := LookupPolicy("heft")
	s, err := pol.Schedule(w, fleetOf(t, devices...), costs, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// k20m drops dead mid-execution. Its cells were pre-measured above, so
	// wipe the store first: a fresh store makes every cell a real
	// (faultable) measurement.
	st2, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	plan := &faults.Plan{Seed: 9, Drop: []string{"k20m"}}
	outc, err := ExecuteResilient(context.Background(), chaosRunner(st2, plan), s, pol, costs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(outc.Quarantined) != 1 || outc.Quarantined[0] != "k20m" {
		t.Fatalf("Quarantined = %v, want [k20m]", outc.Quarantined)
	}
	if outc.Repairs < 1 {
		t.Fatal("no repair pass despite a device dropout")
	}
	for _, sl := range outc.Schedule.Slots {
		if sl.Device == "k20m" {
			t.Fatalf("final schedule still places %s on the dead device", sl.TaskID)
		}
	}
	if len(outc.Schedule.Slots) != len(w.Tasks) {
		t.Fatalf("final schedule has %d slots, want all %d tasks", len(outc.Schedule.Slots), len(w.Tasks))
	}
	// Every cell of the final schedule is measured: the sweep completed.
	for _, sl := range outc.Schedule.Slots {
		if outc.Grid.Find(sl.Benchmark, sl.Size, sl.Device) == nil {
			t.Fatalf("final-schedule cell %s/%s/%s not measured", sl.Benchmark, sl.Size, sl.Device)
		}
	}
	if len(outc.Failed) != 0 {
		t.Fatalf("failures on surviving devices: %v", outc.Failed)
	}
	// The k20m task count is the migration volume.
	wantMigrated := 0
	for _, sl := range s.Slots {
		if sl.Device == "k20m" {
			wantMigrated++
		}
	}
	if outc.MigratedTasks != wantMigrated {
		t.Fatalf("MigratedTasks = %d, want %d", outc.MigratedTasks, wantMigrated)
	}
}

// TestExecutionCancellationKeepsChain: the scheduler wraps round errors
// with context ("sched: round %d: …"), but errors.Is(err,
// context.Canceled) must survive the wrapping — the cancellation-audit
// contract the harness already guarantees, extended through sched.
func TestExecutionCancellationKeepsChain(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	devices := []string{"i7-6700k", "gtx1080"}
	g := measure(t, []string{"crc", "fft", "nw"}, []string{"tiny"}, devices, st)
	costs, err := NewCosts(g, testForest())
	if err != nil {
		t.Fatal(err)
	}
	w := testWorkload(t)
	pol, _ := LookupPolicy("heft")
	s, err := pol.Schedule(w, fleetOf(t, devices...), costs, Options{})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Fresh store so execution has real cells to (not) measure.
	st2, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, err := ExecuteResilient(ctx, chaosRunner(st2, nil), s, pol, costs, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExecuteResilient err = %v, want context.Canceled in the chain", err)
	}
	if _, err := OnlineLoop(ctx, LoopParams{
		Run:      chaosRunner(st2, nil),
		Workload: w,
		Fleet:    fleetOf(t, devices...),
		Policy:   pol,
		Forest:   testForest(),
		Known:    g,
		Costs:    costs,
		Rounds:   2,
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("OnlineLoop err = %v, want context.Canceled in the chain", err)
	}
}

func TestOnlineLoopShrinksFleetOnQuarantine(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	devices := []string{"i7-6700k", "gtx1080", "k20m"}
	benches := []string{"crc", "fft", "nw"}
	// Bootstrap knowledge on the two devices that will survive, via a
	// clean store so the chaos loop re-measures nothing it shouldn't.
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

	plan := &faults.Plan{Seed: 4, Drop: []string{"k20m"}}
	res, err := OnlineLoop(context.Background(), LoopParams{
		Run:      chaosRunner(st, plan),
		Workload: w,
		Fleet:    fleetOf(t, devices...),
		Policy:   pol,
		Forest:   testForest(),
		Known:    known,
		Costs:    seed,
		Rounds:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 2 {
		t.Fatalf("%d rounds, want 2", len(res.Rounds))
	}
	first, second := res.Rounds[0], res.Rounds[1]
	if len(first.Quarantined) != 1 || first.Quarantined[0] != "k20m" {
		t.Fatalf("round 0 Quarantined = %v, want [k20m]", first.Quarantined)
	}
	if first.Repairs < 1 || first.MigratedTasks < 1 {
		t.Fatalf("round 0 repairs=%d migrated=%d, want both ≥ 1", first.Repairs, first.MigratedTasks)
	}
	// The second round plans on the shrunk fleet: k20m never reappears.
	if len(second.Quarantined) != 0 {
		t.Fatalf("round 1 re-quarantined %v", second.Quarantined)
	}
	for _, sl := range second.Schedule.Slots {
		if sl.Device == "k20m" {
			t.Fatal("round 1 scheduled onto the quarantined device")
		}
	}
	if len(res.Quarantined) != 1 || res.Quarantined[0] != "k20m" {
		t.Fatalf("loop Quarantined = %v, want [k20m]", res.Quarantined)
	}
	checkRoundsDigest(t, res.Rounds, "48660a5e2ff0b86b051731ef797f3c33045167e3c99981446dc6081cd89be49b")
}
