package sched

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"opendwarfs/internal/harness"
	"opendwarfs/internal/predict"
	"opendwarfs/internal/sim"
	"opendwarfs/internal/store"
	"opendwarfs/internal/suite"
)

// testForest keeps cost-model training cheap; determinism does not depend
// on ensemble size.
func testForest() predict.Config {
	cfg := predict.DefaultConfig()
	cfg.Trees = 24
	return cfg
}

func testOptions() harness.Options {
	opt := harness.DefaultOptions()
	opt.Samples = 6
	return opt
}

// measure runs a small benchmark × size × device grid for cost-model tests.
func measure(t *testing.T, benches, sizes, devices []string, st *store.Store) *harness.Grid {
	t.Helper()
	spec := harness.GridSpec{
		Benchmarks: benches,
		Sizes:      sizes,
		Devices:    devices,
		Options:    testOptions(),
		Workers:    2,
	}
	// Guard the interface assignment: a typed-nil *store.Store would read
	// as "store attached".
	if st != nil {
		spec.Store = st
	}
	g, err := harness.RunGrid(context.Background(), suite.New(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// testWorkloadSpec is the workload most tests schedule: 8 tasks over three
// tiny rows.
var testWorkloadSpec = WorkloadSpec{Tasks: []TaskSpec{
	{Benchmark: "crc", Size: "tiny", Count: 3},
	{Benchmark: "fft", Size: "tiny", Count: 3},
	{Benchmark: "nw", Size: "tiny", Count: 2},
}}

func testWorkload(t *testing.T) *Workload {
	t.Helper()
	w, err := testWorkloadSpec.Expand(suite.New())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func fleetOf(t *testing.T, ids ...string) []*sim.DeviceSpec {
	t.Helper()
	fleet, err := sim.LookupAll(ids)
	if err != nil {
		t.Fatal(err)
	}
	return fleet
}

// fakeCosts is a hand-rolled provider for evaluator unit tests: time and
// energy per device ID, identical for every workload row.
type fakeCosts struct {
	timeNs  map[string]float64
	energyJ map[string]float64
}

func (f fakeCosts) Cost(bench, size string, dev *sim.DeviceSpec) (Cost, error) {
	tn, ok := f.timeNs[dev.ID]
	if !ok {
		return Cost{}, fmt.Errorf("fake: no cost for %s", dev.ID)
	}
	return Cost{TimeNs: tn, EnergyJ: f.energyJ[dev.ID], Source: SourceMeasured}, nil
}

func TestLookupPolicyUnknownListsSorted(t *testing.T) {
	if _, err := LookupPolicy("heft"); err != nil {
		t.Fatal(err)
	}
	_, err := LookupPolicy("quantum-annealer")
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	// The error must carry every valid policy, in sorted order.
	want := []string{"energy", "fastest-device", "greedy", "heft", "roundrobin"}
	if !reflect.DeepEqual(Policies(), want) {
		t.Fatalf("Policies() = %v, want sorted %v", Policies(), want)
	}
	msg := err.Error()
	last := -1
	for _, name := range want {
		i := strings.Index(msg, name)
		if i < 0 {
			t.Fatalf("error %q does not mention policy %q", msg, name)
		}
		if i < last {
			t.Fatalf("error %q does not list policies in sorted order", msg)
		}
		last = i
	}
}

func TestWorkloadSpecValidation(t *testing.T) {
	reg := suite.New()

	_, err := (&WorkloadSpec{Tasks: []TaskSpec{{Benchmark: "nope", Size: "tiny"}}}).Expand(reg)
	if err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	for _, want := range []string{"nope", "crc", "fft", "srad"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("benchmark error %q does not mention %q", err, want)
		}
	}

	_, err = (&WorkloadSpec{Tasks: []TaskSpec{{Benchmark: "nqueens", Size: "large"}}}).Expand(reg)
	if err == nil {
		t.Fatal("unsupported size accepted")
	}
	if !strings.Contains(err.Error(), "large") {
		t.Fatalf("size error %q does not name the bad size", err)
	}

	if _, err := (&WorkloadSpec{}).Expand(reg); err == nil {
		t.Fatal("empty workload accepted")
	}
	if _, err := (&WorkloadSpec{Tasks: []TaskSpec{{Benchmark: "crc", Size: "tiny", Count: -1}}}).Expand(reg); err == nil {
		t.Fatal("negative count accepted")
	}
	// The expansion cap: /v1/schedule is an open endpoint, one request must
	// not allocate an unbounded task list.
	if _, err := (&WorkloadSpec{Tasks: []TaskSpec{{Benchmark: "crc", Size: "tiny", Count: 2_000_000_000}}}).Expand(reg); err == nil {
		t.Fatal("oversized count accepted")
	}
	if _, err := (&WorkloadSpec{Tasks: []TaskSpec{
		{Benchmark: "crc", Size: "tiny", Count: MaxWorkloadTasks - 1},
		{Benchmark: "fft", Size: "tiny", Count: 2},
	}}).Expand(reg); err == nil {
		t.Fatal("oversized total accepted")
	}

	w, err := (&WorkloadSpec{Tasks: []TaskSpec{
		{Benchmark: "crc", Size: "tiny", Count: 2},
		{Benchmark: "fft", Size: "tiny"},
	}}).Expand(reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Tasks) != 3 {
		t.Fatalf("%d tasks, want 3 (count expansion)", len(w.Tasks))
	}
	if len(w.Rows()) != 2 {
		t.Fatalf("%d rows, want 2", len(w.Rows()))
	}
}

// TestEvaluatorTimeline pins the discrete-event semantics on hand-rolled
// costs: FIFO per device, makespan, idle energy, deadline and energy-budget
// accounting.
func TestEvaluatorTimeline(t *testing.T) {
	fleet := fleetOf(t, "i7-6700k", "gtx1080")
	costs := fakeCosts{
		timeNs:  map[string]float64{"i7-6700k": 100, "gtx1080": 60},
		energyJ: map[string]float64{"i7-6700k": 1, "gtx1080": 4},
	}
	w := &Workload{Tasks: []Task{
		{ID: "a", Benchmark: "crc", Size: "tiny"},
		{ID: "b", Benchmark: "crc", Size: "tiny", DeadlineNs: 50}, // misses everywhere
		{ID: "c", Benchmark: "crc", Size: "tiny", EnergyBudgetJ: 2},
	}}

	pol, err := LookupPolicy("greedy")
	if err != nil {
		t.Fatal(err)
	}
	s, err := pol.Schedule(w, fleet, costs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Greedy EFT: a→gtx (60), b→i7 (100), c→gtx (60+60=120 vs i7 200).
	wantDev := map[string]string{"a": "gtx1080", "b": "i7-6700k", "c": "gtx1080"}
	for _, sl := range s.Slots {
		if sl.Device != wantDev[sl.TaskID] {
			t.Fatalf("task %s on %s, want %s", sl.TaskID, sl.Device, wantDev[sl.TaskID])
		}
	}
	if s.MakespanNs != 120 {
		t.Fatalf("makespan %g, want 120", s.MakespanNs)
	}
	if s.DeadlineMisses != 1 {
		t.Fatalf("%d deadline misses, want 1 (task b finishes at 100 > 50)", s.DeadlineMisses)
	}
	if s.EnergyOverruns != 1 {
		t.Fatalf("%d energy overruns, want 1 (task c costs 4 J > 2 J)", s.EnergyOverruns)
	}
	if s.TotalEnergyJ != 9 {
		t.Fatalf("active energy %g, want 9 (4+1+4)", s.TotalEnergyJ)
	}
	// Idle: gtx busy 120 of 120 → 0; i7 busy 100 of 120 → 20 ns × IdleWatts.
	wantIdle := 20 * 1e-9 * fleet[0].IdleWatts
	if s.IdleEnergyJ != wantIdle {
		t.Fatalf("idle energy %g, want %g", s.IdleEnergyJ, wantIdle)
	}

	// Retime under doubled costs: same placement, scaled timeline.
	slower := fakeCosts{
		timeNs:  map[string]float64{"i7-6700k": 200, "gtx1080": 120},
		energyJ: costs.energyJ,
	}
	rt, err := s.Retime(slower)
	if err != nil {
		t.Fatal(err)
	}
	if rt.MakespanNs != 240 {
		t.Fatalf("retimed makespan %g, want 240", rt.MakespanNs)
	}
	for i := range rt.Slots {
		if rt.Slots[i].TaskID != s.Slots[i].TaskID || rt.Slots[i].Device != s.Slots[i].Device {
			t.Fatal("retime changed the placement")
		}
	}
}

// TestEnergyPolicyFrugalWithinBudget: with a non-binding budget the energy
// policy reaches the per-task active-energy lower bound; with a binding
// budget it stays within it when feasible placements exist.
func TestEnergyPolicyFrugalWithinBudget(t *testing.T) {
	fleet := fleetOf(t, "i7-6700k", "gtx1080")
	costs := fakeCosts{
		timeNs:  map[string]float64{"i7-6700k": 100, "gtx1080": 10},
		energyJ: map[string]float64{"i7-6700k": 1, "gtx1080": 5},
	}
	w := &Workload{Tasks: make([]Task, 4)}
	for i := range w.Tasks {
		w.Tasks[i] = Task{ID: fmt.Sprintf("t%d", i), Benchmark: "crc", Size: "tiny"}
	}
	energy, err := LookupPolicy("energy")
	if err != nil {
		t.Fatal(err)
	}

	loose, err := energy.Schedule(w, fleet, costs, Options{MakespanBudgetNs: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if loose.TotalEnergyJ != 4 { // every task on the 1 J CPU
		t.Fatalf("unconstrained energy %g J, want 4", loose.TotalEnergyJ)
	}

	tight, err := energy.Schedule(w, fleet, costs, Options{MakespanBudgetNs: 110})
	if err != nil {
		t.Fatal(err)
	}
	if tight.MakespanNs > 110 {
		t.Fatalf("makespan %g exceeds the feasible 110 ns budget", tight.MakespanNs)
	}
	if tight.TotalEnergyJ >= 20 { // not everything on the 5 J GPU
		t.Fatalf("budgeted schedule spent %g J, expected some frugal placements", tight.TotalEnergyJ)
	}
}

// TestCostProviderSources: measured cells answer as measured, unmeasured
// devices fall back to the forest with the predicted flag, rows never
// measured anywhere need EnsureProfiles.
func TestCostProviderSources(t *testing.T) {
	g := measure(t, []string{"crc", "fft"}, []string{"tiny"}, []string{"i7-6700k", "gtx1080"}, nil)
	costs, err := NewCosts(g, testForest())
	if err != nil {
		t.Fatal(err)
	}
	i7 := fleetOf(t, "i7-6700k")[0]
	titanx := fleetOf(t, "titanx")[0]

	c, err := costs.Cost("crc", "tiny", i7)
	if err != nil {
		t.Fatal(err)
	}
	if c.Source != SourceMeasured {
		t.Fatalf("measured cell resolved as %s", c.Source)
	}
	m := g.Find("crc", "tiny", "i7-6700k")
	if c.TimeNs != m.Kernel.Median || c.EnergyJ != m.Energy.Median {
		t.Fatal("measured cost does not match the cell's medians")
	}

	c, err = costs.Cost("crc", "tiny", titanx)
	if err != nil {
		t.Fatal(err)
	}
	if c.Source != SourcePredicted {
		t.Fatalf("unmeasured cell resolved as %s", c.Source)
	}
	if c.TimeNs <= 0 || c.EnergyJ <= 0 {
		t.Fatalf("non-positive predicted cost: %+v", c)
	}
	if costs.Cell("crc", "tiny", "i7-6700k") != m || costs.Cell("crc", "tiny", "titanx") != nil {
		t.Fatal("Cell() disagrees with the grid")
	}

	// nw/tiny was never measured on any device: error until characterised.
	if _, err := costs.Cost("nw", "tiny", i7); err == nil {
		t.Fatal("unmeasured row predicted without profiles")
	}
	w := &Workload{Tasks: []Task{{ID: "x", Benchmark: "nw", Size: "tiny"}}}
	if missing := costs.MissingRows(w); !reflect.DeepEqual(missing, []string{"nw/tiny"}) {
		t.Fatalf("MissingRows = %v", missing)
	}
	if err := costs.EnsureProfiles(context.Background(), suite.New(), testOptions(), w); err != nil {
		t.Fatal(err)
	}
	if missing := costs.MissingRows(w); len(missing) != 0 {
		t.Fatalf("MissingRows after EnsureProfiles = %v", missing)
	}
	c, err = costs.Cost("nw", "tiny", i7)
	if err != nil {
		t.Fatal(err)
	}
	if c.Source != SourcePredicted || c.TimeNs <= 0 {
		t.Fatalf("characterised row predicted badly: %+v", c)
	}
}

// TestForestsTrainOnFirstNeed: a grid the energy model refuses (one cell
// with zero median energy) still builds a provider. Measured costs and time
// predictions answer without the energy forest; only a predicted Cost, the
// one call that needs it, reports its error.
func TestForestsTrainOnFirstNeed(t *testing.T) {
	g := measure(t, []string{"crc", "fft"}, []string{"tiny"}, []string{"i7-6700k", "gtx1080"}, nil)
	g.Measurements[0].Energy.Median = 0
	if _, err := predict.EnergyFromGrid(g); err == nil {
		t.Fatal("EnergyFromGrid accepted a zero-energy cell")
	}
	titanx := fleetOf(t, "titanx")[0]
	measuredAnswer := func(costs *Costs) {
		t.Helper()
		for _, m := range g.Measurements {
			if _, err := costs.Cost(m.Benchmark, m.Size, m.Device); err != nil {
				t.Fatalf("measured %s/%s on %s: %v", m.Benchmark, m.Size, m.Device.ID, err)
			}
		}
	}

	costs, err := NewCosts(g, testForest())
	if err != nil {
		t.Fatal(err)
	}
	measuredAnswer(costs)
	if ns, err := costs.PredictNs("crc", "tiny", titanx); err != nil || ns <= 0 {
		t.Fatalf("time prediction for an unmeasured device: %v, %v", ns, err)
	}
	if _, err := costs.Cost("crc", "tiny", titanx); err == nil || !strings.Contains(err.Error(), "energy") {
		t.Fatalf("predicted Cost err = %v, want the energy model's", err)
	}

	// Measured costs need no forest at all: they answer under a config no
	// forest trains with.
	noTrees := testForest()
	noTrees.Trees = 0
	if costs, err = NewCosts(g, noTrees); err != nil {
		t.Fatal(err)
	}
	measuredAnswer(costs)
	if _, err := costs.PredictNs("crc", "tiny", titanx); err == nil {
		t.Fatal("time prediction without trees succeeded")
	}
}

// TestCostsTrainOnGridAsBuilt: the forests train after NewCosts returns,
// on the cells the grid held then. dwarfsched merges its oracle sweep into
// the grid its provider was built on, replacing cells in place and adding
// others; the provider's predictions must not move.
func TestCostsTrainOnGridAsBuilt(t *testing.T) {
	g := measure(t, []string{"crc", "fft"}, []string{"tiny"}, []string{"i7-6700k", "gtx1080"}, nil)
	titanx := fleetOf(t, "titanx")[0]
	ref, err := NewCosts(g, testForest())
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.PredictNs("crc", "tiny", titanx)
	if err != nil {
		t.Fatal(err)
	}

	costs, err := NewCosts(g, testForest())
	if err != nil {
		t.Fatal(err)
	}
	replaced := *g.Measurements[0]
	replaced.Kernel.Median *= 10
	g.Merge(&harness.Grid{Measurements: []*harness.Measurement{&replaced}})
	g.Merge(measure(t, []string{"crc", "fft"}, []string{"tiny"}, []string{"k20m"}, nil))
	got, err := costs.PredictNs("crc", "tiny", titanx)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("prediction %v after the grid grew, want %v: the forest trained on the merged grid", got, want)
	}
}

// TestPredictedCostsMemoised resolves every predicted cell of a small grid
// over the whole catalogue from 8 goroutines on one provider: each answer
// must be bitwise the one a fresh provider computes, and a repeated
// predicted Cost must come from the memo — it allocates nothing, where a
// forest walk builds a feature vector.
func TestPredictedCostsMemoised(t *testing.T) {
	g := measure(t, []string{"crc", "fft"}, []string{"tiny"}, []string{"i7-6700k", "gtx1080"}, nil)
	shared, err := NewCosts(g, testForest())
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewCosts(g, testForest())
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		bench string
		dev   *sim.DeviceSpec
	}
	var cells []cell
	want := map[cell]Cost{}
	for _, bench := range []string{"crc", "fft"} {
		for _, dev := range sim.Devices() {
			if fresh.Cell(bench, "tiny", dev.ID) != nil {
				continue
			}
			c, err := fresh.Cost(bench, "tiny", dev)
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, cell{bench, dev})
			want[cell{bench, dev}] = c
		}
	}
	if len(cells) != 26 {
		t.Fatalf("%d predicted cells, want 2 rows × 13 unmeasured devices", len(cells))
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine starts at its own offset, so first walks race.
			for i := range cells {
				k := cells[(i+3*w)%len(cells)]
				c, err := shared.Cost(k.bench, "tiny", k.dev)
				if err != nil {
					t.Error(err)
					return
				}
				if ref := want[k]; c.Source != SourcePredicted ||
					math.Float64bits(c.TimeNs) != math.Float64bits(ref.TimeNs) ||
					math.Float64bits(c.EnergyJ) != math.Float64bits(ref.EnergyJ) {
					t.Errorf("%s/tiny on %s: %+v, fresh provider computes %+v", k.bench, k.dev.ID, c, ref)
				}
			}
		}()
	}
	wg.Wait()

	k := cells[0]
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := shared.Cost(k.bench, "tiny", k.dev); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a repeated predicted Cost allocates %v times: it bypasses the memo", allocs)
	}
}

// TestPoliciesBeatRoundRobin: on measured costs over a heterogeneous fleet
// (including the KNL, which round-robin blindly loads), the cost-aware
// schedulers strictly win on makespan — the ISSUE's acceptance shape.
func TestPoliciesBeatRoundRobin(t *testing.T) {
	devices := []string{"i7-6700k", "gtx1080", "k20m", "knl-7210"}
	g := measure(t, []string{"crc", "fft", "nw"}, []string{"tiny"}, devices, nil)
	costs, err := NewCosts(g, testForest())
	if err != nil {
		t.Fatal(err)
	}
	w := testWorkload(t)
	fleet := fleetOf(t, devices...)

	run := func(name string) *Schedule {
		pol, err := LookupPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		s, err := pol.Schedule(w, fleet, costs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Slots) != len(w.Tasks) {
			t.Fatalf("%s scheduled %d of %d tasks", name, len(s.Slots), len(w.Tasks))
		}
		if s.Measured != len(s.Slots) || s.Predicted != 0 {
			t.Fatalf("%s on a fully measured grid used %d predictions", name, s.Predicted)
		}
		return s
	}

	rr := run("roundrobin")
	for _, name := range []string{"greedy", "heft"} {
		s := run(name)
		if s.MakespanNs >= rr.MakespanNs {
			t.Fatalf("%s makespan %.3g ns does not beat roundrobin %.3g ns", name, s.MakespanNs, rr.MakespanNs)
		}
	}
	// HEFT places long tasks first; it must be at least as good as greedy's
	// workload-order placement here.
	if run("heft").MakespanNs > run("greedy").MakespanNs {
		t.Log("note: heft behind greedy on this workload (allowed in general, unexpected here)")
	}
}

// TestScheduleDeterministicAcrossWorkers: the full pipeline — grid → cost
// model → every policy — yields a bitwise-identical Schedule no matter how
// many workers trained the forests, and one that matches a committed
// digest of every policy's JSON schedule. nw/tiny is never measured, so
// the digest also pins the forest predictions made through NewCosts and
// EnsureProfiles. Every policy runs twice on the same provider, and the
// second pass, served from the memo, must repeat the first byte for byte.
// Refresh the digest only with a documented model change.
func TestScheduleDeterministicAcrossWorkers(t *testing.T) {
	const want = "725fa89c7e4b6b54bb3e24aaa9af5b5bc645ffd8f6956125916b6332f5d5385b"
	devices := []string{"i7-6700k", "gtx1080", "k20m"}
	g := measure(t, []string{"crc", "fft"}, []string{"tiny"}, devices, nil)
	w := testWorkload(t)
	// nw/tiny is unmeasured: predictions must be deterministic too.
	fleet := fleetOf(t, devices...)

	schedule := func(workers int) map[string][]byte {
		cfg := testForest()
		cfg.Workers = workers
		costs, err := NewCosts(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := costs.EnsureProfiles(context.Background(), suite.New(), testOptions(), w); err != nil {
			t.Fatal(err)
		}
		out := map[string][]byte{}
		for pass := 0; pass < 2; pass++ {
			for _, name := range Policies() {
				pol, err := LookupPolicy(name)
				if err != nil {
					t.Fatal(err)
				}
				s, err := pol.Schedule(w, fleet, costs, Options{})
				if err != nil {
					t.Fatal(err)
				}
				buf, err := json.Marshal(s)
				if err != nil {
					t.Fatal(err)
				}
				if pass == 1 && !bytes.Equal(buf, out[name]) {
					t.Fatalf("policy %s: a second schedule on the same provider differs", name)
				}
				out[name] = buf
			}
		}
		return out
	}

	seq := schedule(1)
	par := schedule(8)
	h := sha256.New()
	for _, name := range Policies() {
		if !bytes.Equal(seq[name], par[name]) {
			t.Fatalf("policy %s: schedule differs between 1 and 8 training workers", name)
		}
		fmt.Fprintf(h, "%s %d\n", name, len(seq[name]))
		h.Write(seq[name])
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("schedule digest %s, want %s", got, want)
	}
}

// storeRunner adapts harness.RunGrid over a store-backed spec — the test
// stand-in for opendwarfs.Session.RunGrid.
func storeRunner(st *store.Store) Runner {
	return func(ctx context.Context, benches, sizes, devices []string) (*harness.Grid, error) {
		spec := harness.GridSpec{
			Benchmarks: benches,
			Sizes:      sizes,
			Devices:    devices,
			Options:    testOptions(),
			Workers:    2,
		}
		if st != nil {
			spec.Store = st
		}
		return harness.RunGrid(ctx, suite.New(), spec)
	}
}

// TestExecuteMeasuresExactlyScheduleCells: Execute's grid holds one
// measurement per distinct schedule cell and nothing else.
func TestExecuteMeasuresExactlyScheduleCells(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	devices := []string{"i7-6700k", "gtx1080"}
	g := measure(t, []string{"crc", "fft"}, []string{"tiny"}, devices, st)
	costs, err := NewCosts(g, testForest())
	if err != nil {
		t.Fatal(err)
	}
	w := testWorkload(t)
	if err := costs.EnsureProfiles(context.Background(), suite.New(), testOptions(), w); err != nil {
		t.Fatal(err)
	}
	pol, _ := LookupPolicy("heft")
	s, err := pol.Schedule(w, fleetOf(t, devices...), costs, Options{})
	if err != nil {
		t.Fatal(err)
	}

	executed, err := Execute(context.Background(), storeRunner(st), s)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[string]bool{}
	for _, sl := range s.Slots {
		distinct[sl.Benchmark+"/"+sl.Size+"/"+sl.Device] = true
	}
	if executed.Cells() != len(distinct) {
		t.Fatalf("executed %d cells, schedule has %d distinct", executed.Cells(), len(distinct))
	}
	for _, m := range executed.Measurements {
		if !distinct[m.Benchmark+"/"+m.Size+"/"+m.Device.ID] {
			t.Fatalf("executed %s/%s/%s, not in the schedule", m.Benchmark, m.Size, m.Device.ID)
		}
	}
	// crc and fft cells were swept into the store above: store hits.
	if executed.StoreHits == 0 {
		t.Fatal("expected store hits for pre-measured cells")
	}
}

// TestExecuteKeepsCellsOfFailedRun: a run that fails after completing
// some cells hands them back beside its error, and Execute's grid keeps
// them — they are in the store, so the next round resolves them as
// measured.
func TestExecuteKeepsCellsOfFailedRun(t *testing.T) {
	done := measure(t, []string{"crc"}, []string{"tiny"}, []string{"i7-6700k"}, nil)
	boom := errors.New("boom")
	run := func(context.Context, []string, []string, []string) (*harness.Grid, error) {
		return done, boom
	}
	s := &Schedule{Slots: []Slot{
		{Benchmark: "crc", Size: "tiny", Device: "i7-6700k"},
		{Benchmark: "crc", Size: "tiny", Device: "gtx1080"},
	}}
	g, err := Execute(context.Background(), run, s)
	if !errors.Is(err, boom) {
		t.Fatalf("Execute returned %v, want the run's error", err)
	}
	if g.Cells() != 1 || g.Find("crc", "tiny", "i7-6700k") == nil {
		t.Fatalf("Execute's grid holds %d cells, want the failed run's completed crc/tiny/i7-6700k", g.Cells())
	}
}

// TestOnlineLoopRegretNonIncreasing is the ISSUE's convergence test: the
// loop's incumbent oracle-regret never increases, predictions drain out of
// the plan as executed cells land in the store, and later rounds are
// served from it.
func TestOnlineLoopRegretNonIncreasing(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	devices := []string{"i7-6700k", "gtx1080", "k20m", "knl-7210"}
	benches := []string{"crc", "fft", "nw"}
	// Ground truth: the full workload × fleet grid, persisted.
	truth := measure(t, benches, []string{"tiny"}, devices, st)
	truthCosts, err := NewCosts(truth, testForest())
	if err != nil {
		t.Fatal(err)
	}
	w := testWorkload(t)
	fleet := fleetOf(t, devices...)
	pol, _ := LookupPolicy("heft")
	oracle, err := Oracle(pol, w, fleet, truthCosts, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// The loop's knowledge starts from two devices only; the other two are
	// prediction territory until a round executes on them.
	known := &harness.Grid{}
	for _, m := range truth.Measurements {
		if m.Device.ID == "i7-6700k" || m.Device.ID == "knl-7210" {
			known.Measurements = append(known.Measurements, m)
		}
	}

	res, err := OnlineLoop(context.Background(), LoopParams{
		Run:      storeRunner(st),
		Workload: w,
		Fleet:    fleet,
		Policy:   pol,
		Forest:   testForest(),
		Known:    known,
		Oracle:   oracle,
		Truth:    truthCosts,
		Rounds:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 3 {
		t.Fatalf("%d rounds", len(res.Rounds))
	}
	for i := 1; i < len(res.Rounds); i++ {
		if res.Rounds[i].BestRegretPct > res.Rounds[i-1].BestRegretPct {
			t.Fatalf("incumbent regret rose: round %d %.3f%% -> round %d %.3f%%",
				i-1, res.Rounds[i-1].BestRegretPct, i, res.Rounds[i].BestRegretPct)
		}
	}
	first, last := res.Rounds[0], res.Rounds[len(res.Rounds)-1]
	if last.Predicted > first.Predicted {
		t.Fatalf("predictions grew across rounds: %d -> %d", first.Predicted, last.Predicted)
	}
	// Round 2+ re-executes cells the earlier rounds persisted: store hits.
	if len(res.Rounds) > 1 && res.Rounds[1].StoreHits == 0 {
		t.Fatal("round 2 expected store hits from round 1's execution")
	}
	// Every cell the rounds measured landed in the knowledge grid.
	if res.Grid.Cells() < known.Cells() {
		t.Fatal("knowledge grid shrank")
	}
	// After any round, that round's schedule cells are all measured, so its
	// retimed makespan is exact; the final round must be within a loose
	// factor of the oracle (the shape the CI sched-smoke asserts at 25%).
	if last.RegretPct > 100 {
		t.Fatalf("final-round regret %.1f%% is wildly off the oracle", last.RegretPct)
	}
	checkRoundsDigest(t, res.Rounds, "92fee5337d4a1629c7a6bb883e4e213c68cced23816d08d46b5940c7057752a3")
}

// checkRoundsDigest pins an online loop's rounds — every schedule, cost
// source count, regret and fault tally — by the SHA-256 of their JSON.
// Refresh a digest only with a documented model or policy change.
func checkRoundsDigest(t *testing.T, rounds []Round, want string) {
	t.Helper()
	buf, err := json.Marshal(rounds)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("rounds digest %s, want %s", got, want)
	}
}

// TestOnlineLoopCarriesCharacterisations: a workload row with no measured
// cell on any device schedules in round 0 when the seeding provider's
// EnsureProfiles characterisation is donated via LoopParams.Costs — and
// fails loudly without it.
func TestOnlineLoopCarriesCharacterisations(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	devices := []string{"i7-6700k", "gtx1080"}
	known := measure(t, []string{"crc", "fft"}, []string{"tiny"}, devices, st)
	w := testWorkload(t) // includes nw/tiny: measured nowhere
	fleet := fleetOf(t, devices...)
	pol, _ := LookupPolicy("heft")

	params := LoopParams{
		Run: storeRunner(st), Workload: w, Fleet: fleet,
		Policy: pol, Forest: testForest(), Known: known, Rounds: 2,
	}
	if _, err := OnlineLoop(context.Background(), params); err == nil {
		t.Fatal("loop scheduled an uncharacterised row")
	}

	seed, err := NewCosts(known, testForest())
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.EnsureProfiles(context.Background(), suite.New(), testOptions(), w); err != nil {
		t.Fatal(err)
	}
	params.Costs = seed
	res, err := OnlineLoop(context.Background(), params)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds[0].Predicted == 0 {
		t.Fatal("round 0 should have predicted the uncharacterised row's cells")
	}
	// Round 0 executed nw/tiny, so round 1 resolves it measured.
	if res.Rounds[1].Predicted != 0 {
		t.Fatalf("round 1 still predicting %d cells", res.Rounds[1].Predicted)
	}
}

// TestFleetRejectsDuplicates: a repeated device ID would evaluate as two
// physical cards; it must fail, not silently halve the makespan.
func TestFleetRejectsDuplicates(t *testing.T) {
	if _, err := Fleet([]string{"gtx1080", "i7-6700k", "gtx1080"}); err == nil {
		t.Fatal("duplicate fleet device accepted")
	}
	fleet, err := Fleet(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet) != len(sim.Devices()) {
		t.Fatalf("empty fleet resolves to %d devices", len(fleet))
	}
}

// TestOracleRequiresMeasured: the oracle refuses predicted costs rather
// than silently grading against them.
func TestOracleRequiresMeasured(t *testing.T) {
	g := measure(t, []string{"crc", "fft", "nw"}, []string{"tiny"}, []string{"i7-6700k", "gtx1080"}, nil)
	costs, err := NewCosts(g, testForest())
	if err != nil {
		t.Fatal(err)
	}
	w := testWorkload(t)
	pol, _ := LookupPolicy("heft")
	// titanx is unmeasured → predicted → oracle must refuse.
	if _, err := Oracle(pol, w, fleetOf(t, "i7-6700k", "titanx"), costs, Options{}); err == nil {
		t.Fatal("oracle accepted predicted costs")
	}
	if _, err := Oracle(pol, w, fleetOf(t, "i7-6700k", "gtx1080"), costs, Options{}); err != nil {
		t.Fatal(err)
	}
}

// TestTimelineExports: CSV and JSONL exports are well-formed and complete.
func TestTimelineExports(t *testing.T) {
	fleet := fleetOf(t, "i7-6700k", "gtx1080")
	costs := fakeCosts{
		timeNs:  map[string]float64{"i7-6700k": 100, "gtx1080": 60},
		energyJ: map[string]float64{"i7-6700k": 1, "gtx1080": 4},
	}
	w := testWorkload(t)
	pol, _ := LookupPolicy("heft")
	s, err := pol.Schedule(w, fleet, costs, Options{})
	if err != nil {
		t.Fatal(err)
	}

	var csvBuf bytes.Buffer
	if err := WriteTimelineCSV(&csvBuf, s); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 1+len(w.Tasks) {
		t.Fatalf("CSV has %d lines, want header + %d slots", len(lines), len(w.Tasks))
	}

	var jsonlBuf bytes.Buffer
	if err := WriteTimelineJSONL(&jsonlBuf, s); err != nil {
		t.Fatal(err)
	}
	jl := strings.Split(strings.TrimSpace(jsonlBuf.String()), "\n")
	if len(jl) != 1+len(w.Tasks) {
		t.Fatalf("JSONL has %d lines, want summary + %d slots", len(jl), len(w.Tasks))
	}
	var slot Slot
	if err := json.Unmarshal([]byte(jl[1]), &slot); err != nil {
		t.Fatalf("slot line does not decode: %v", err)
	}
}
