// Command dwarfsched is the prediction-guided heterogeneous scheduler of
// the paper's §7 motivation: given a workload of benchmark × size tasks
// and a device fleet, it builds a cost model from measured cells (store
// hits) plus forest predictions (everything else), places the tasks under
// each policy, and reports the resulting timelines.
//
//	dwarfsched                                         # default workload, all policies compared
//	dwarfsched -tasks "fft/large:3,crc/small:2"        # inline workload (bench/size[:count])
//	dwarfsched -workload spec.json -policy energy       # JSON spec, energy-aware placement
//	dwarfsched -store results/ -rounds 3                # online loop: schedule -> execute -> re-train
//	dwarfsched -oracle                                  # measure everything, grade against the oracle
//	dwarfsched -assert-regret 25                        # CI gate: regret within 25% of the oracle
//
// The cost model is seeded by a bootstrap sweep of the workload's rows on
// -bootstrap devices (store hits when a -store already holds them) plus
// whatever the store already knows; unmeasured (task, device) cells are
// predicted by the §5 forests, and every placement is flagged with its
// cost source. Execution flows through Session.Stream, so with -store each
// round's measured cells persist and later rounds prefer measurement over
// prediction. Everything is deterministic in (-seed, workload, fleet).
//
// -trace records scheduling rounds (plan, execute, repair) and the
// measurement grids under them as a Chrome trace-event file for Perfetto
// or chrome://tracing.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"opendwarfs"
	"opendwarfs/internal/cli"
	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/harness"
	"opendwarfs/internal/obs"
	"opendwarfs/internal/predict"
	"opendwarfs/internal/report"
	"opendwarfs/internal/sched"
	"opendwarfs/internal/scibench"
	"opendwarfs/internal/sim"
	"opendwarfs/internal/store"
	"opendwarfs/internal/suite"
)

func main() {
	def := predict.DefaultConfig()
	var (
		tasks        = flag.String("tasks", "", `inline workload: comma-separated bench/size[:count] (default: every benchmark at -size, -count copies)`)
		workloadPath = flag.String("workload", "", "workload spec JSON file ({\"tasks\":[{\"benchmark\":...,\"size\":...,\"count\":...,\"deadline_ms\":...,\"energy_budget_j\":...}]})")
		size         = flag.String("size", "large", "size of the default workload's tasks (benchmarks without it use their largest)")
		count        = flag.Int("count", 3, "copies of each task in the default workload")
		devices      = flag.String("devices", "", "comma-separated fleet device IDs (default: all 15)")
		policyName   = flag.String("policy", "heft", "primary policy: timelines, exports, rounds and regret use it")
		policyList   = flag.String("policies", "all", "comma-separated policies for the comparison table (all = every registered one)")
		bootstrap    = flag.String("bootstrap", "i7-6700k,gtx1080,k20m,knl-7210", "devices measured to seed the cost model (empty = none)")
		samples      = flag.Int("samples", scibench.PaperSampleSize(), "samples per measured cell")
		seed         = flag.Int64("seed", def.Seed, "dataset and training seed")
		parallel     = flag.Int("parallel", 0, "concurrent workers for measurement and training (0 = GOMAXPROCS)")
		trees        = flag.Int("trees", def.Trees, "forest size of the cost models")
		budgetMs     = flag.Float64("budget-ms", 0, "energy policy: explicit makespan budget (0 = derive from -budget-factor)")
		budgetFactor = flag.Float64("budget-factor", sched.DefaultOptions().BudgetFactor, "energy policy: budget as a factor of the HEFT makespan")
		storeDir     = flag.String("store", "", "persistent result store: measured cells are reused and new ones persist")
		rounds       = flag.Int("rounds", 0, "online loop rounds (0 = single-shot schedule)")
		oracle       = flag.Bool("oracle", false, "measure the full workload × fleet grid and report regret against the measured-cost oracle")
		assertRegret = flag.Float64("assert-regret", 0, "fail unless the primary policy's oracle regret ≤ this (%; implies -oracle; 0 = off)")
		csvPath      = flag.String("csv", "", "write the primary schedule's timeline as CSV")
		jsonlPath    = flag.String("jsonl", "", "write the primary schedule's timeline as JSONL")
		progress     = flag.Bool("progress", false, "print per-cell measurement progress")

		chaos          = flag.Bool("chaos", false, "inject deterministic faults into every measurement (see -chaos-*)")
		chaosSeed      = flag.Int64("chaos-seed", 1, "fault-injection seed (independent of -seed)")
		chaosTransient = flag.Float64("chaos-transient", 0.2, "chaos: per-attempt transient fault probability")
		chaosDrop      = flag.String("chaos-drop", "", "chaos: comma-separated devices that are permanently down")
		chaosStraggler = flag.Float64("chaos-straggler", 0, "chaos: per-cell straggler probability")
		chaosFactor    = flag.Float64("chaos-straggler-factor", 4, "chaos: straggler slowdown factor")
		retries        = flag.Int("retries", 0, "measurement attempts per cell (0/1 = no retry)")
		retryBackoff   = flag.Duration("retry-backoff", 0, "base backoff before a retry (doubles per attempt)")
		tracePath      = flag.String("trace", "", "write a Chrome trace-event file of scheduling rounds and measurements (open in Perfetto)")
		assertComplete = flag.Bool("assert-complete", false, "fail unless every reachable cell of the final schedule was measured and no failure leaked onto a surviving device (requires -rounds >= 1)")
	)
	flag.Parse()
	if *assertRegret > 0 {
		*oracle = true
	}
	if *assertComplete && *rounds <= 0 {
		fatal(fmt.Errorf("-assert-complete requires -rounds >= 1"))
	}

	reg := suite.New()
	w, err := buildWorkload(reg, *workloadPath, *tasks, *size, *count)
	if err != nil {
		fatal(err)
	}
	fleet, err := sched.Fleet(cli.Split(*devices))
	if err != nil {
		fatal(err)
	}
	primary, err := sched.LookupPolicy(*policyName)
	if err != nil {
		fatal(err)
	}
	compare, err := comparisonPolicies(*policyList, *policyName)
	if err != nil {
		fatal(err)
	}
	schedOpt := sched.Options{MakespanBudgetNs: *budgetMs * 1e6, BudgetFactor: *budgetFactor}
	cfg := predict.Config{
		Trees: *trees, MaxDepth: def.MaxDepth, MinLeaf: def.MinLeaf,
		FeatureFrac: def.FeatureFrac, Seed: *seed, Workers: *parallel,
	}

	// Knowledge starts from everything the store already holds.
	known := &harness.Grid{}
	if *storeDir != "" {
		if g, err := storedGrid(*storeDir); err != nil {
			fatal(err)
		} else {
			known.Merge(g)
		}
	}

	sessOpts := []opendwarfs.Option{
		opendwarfs.WithSamples(*samples),
		opendwarfs.WithSeed(*seed),
		opendwarfs.WithWorkers(*parallel),
	}
	if *storeDir != "" {
		sessOpts = append(sessOpts, opendwarfs.WithStore(*storeDir))
	}
	if *chaos {
		sessOpts = append(sessOpts, opendwarfs.WithFaults(&opendwarfs.FaultPlan{
			Seed:            *chaosSeed,
			TransientRate:   *chaosTransient,
			Drop:            cli.Split(*chaosDrop),
			StragglerRate:   *chaosStraggler,
			StragglerFactor: *chaosFactor,
		}))
	}
	if *retries > 0 || *retryBackoff > 0 {
		sessOpts = append(sessOpts, opendwarfs.WithRetry(opendwarfs.RetryPolicy{
			MaxAttempts: *retries,
			BaseBackoff: *retryBackoff,
		}))
	}
	sess, err := opendwarfs.NewSession(sessOpts...)
	if err != nil {
		fatal(err)
	}
	defer sess.Close()

	// Ctrl-C cancels measurement; with -store the completed cells persist.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// The tracer rides the context: every grid the session streams and
	// every scheduling round spans into it, and it is flushed on all exit
	// paths (fatal included) — completed spans only, so always well-formed.
	if *tracePath != "" {
		traceTracer, traceFile = obs.NewTracer(), *tracePath
		ctx = obs.ContextWithTracer(ctx, traceTracer)
	}
	defer flushTrace()
	run := runner(sess, *progress)

	// Bootstrap: the workload's rows on the bootstrap devices seed the
	// forests (store hits when already measured).
	if boot := cli.Split(*bootstrap); len(boot) > 0 {
		if _, err := sim.LookupAll(boot); err != nil {
			fatal(err)
		}
		g, err := measureRows(ctx, run, w, boot)
		if err != nil {
			fatal(err)
		}
		known.Merge(g)
	}
	costs, err := sched.NewCosts(known, cfg)
	if err != nil {
		fatal(err)
	}
	if err := costs.EnsureProfiles(ctx, reg, sess.Options(), w); err != nil {
		fatal(err)
	}
	fmt.Printf("Workload: %d tasks over %d rows; fleet: %d devices; cost model: %d measured cells\n",
		len(w.Tasks), len(w.Rows()), len(fleet), costs.TrainingCells())

	// Policy comparison on the shared cost model.
	var schedules []*sched.Schedule
	var primarySchedule *sched.Schedule
	for _, pol := range compare {
		s, err := pol.Schedule(w, fleet, costs, schedOpt)
		if err != nil {
			fatal(err)
		}
		schedules = append(schedules, s)
		if pol.Name() == primary.Name() {
			primarySchedule = s
		}
	}
	fmt.Println()
	report.PolicyComparison(os.Stdout, schedules)
	fmt.Println()
	report.ScheduleTimeline(os.Stdout, primarySchedule)

	if *csvPath != "" {
		if err := cli.WriteFile(*csvPath, func(w io.Writer) error { return sched.WriteTimelineCSV(w, primarySchedule) }); err != nil {
			fatal(err)
		}
		fmt.Printf("\nTimeline written to %s\n", *csvPath)
	}
	if *jsonlPath != "" {
		if err := cli.WriteFile(*jsonlPath, func(w io.Writer) error { return sched.WriteTimelineJSONL(w, primarySchedule) }); err != nil {
			fatal(err)
		}
		fmt.Printf("Timeline written to %s\n", *jsonlPath)
	}

	// Oracle: measure the full workload × fleet grid (store-hit when
	// known) and grade the prediction-built schedule against the same
	// policy on measured costs. The online loop's knowledge is snapshotted
	// first: the oracle's ground truth must not leak into the loop's cost
	// model, or there would be nothing left to learn.
	loopKnown := &harness.Grid{}
	loopKnown.Merge(known)
	var oracleSchedule *sched.Schedule
	var truthCosts *sched.Costs
	// Devices the sweeps quarantine shrink the oracle's fleet: an oracle
	// cannot place work on a device that cannot be measured. The scheduler
	// proper still plans over the full fleet — discovering the dropout and
	// migrating around it is exactly what the repair path is for.
	oracleFleet := fleet
	if *oracle {
		fleetIDs := make([]string, len(fleet))
		for i, d := range fleet {
			fleetIDs[i] = d.ID
		}
		truth, err := measureRows(ctx, run, w, fleetIDs)
		if err != nil {
			fatal(err)
		}
		known.Merge(truth)
		if dead := known.Quarantined; len(dead) > 0 {
			if oracleFleet = sched.Survivors(fleet, dead); len(oracleFleet) == 0 {
				fatal(fmt.Errorf("every fleet device is quarantined: %v", dead))
			}
			fmt.Printf("\nQuarantined during measurement: %s; oracle graded over the %d survivors\n",
				strings.Join(dead, ", "), len(oracleFleet))
		}
		if truthCosts, err = sched.NewCosts(known, cfg); err != nil {
			fatal(err)
		}
		if oracleSchedule, err = sched.Oracle(primary, w, oracleFleet, truthCosts, schedOpt); err != nil {
			fatal(err)
		}
	}

	regret := 0.0
	if *rounds > 0 {
		params := sched.LoopParams{
			Run: run, Workload: w, Fleet: fleet, Policy: primary,
			Forest: cfg, Sched: schedOpt, Known: loopKnown, Costs: costs,
			Rounds: *rounds,
		}
		if oracleSchedule != nil && truthCosts != nil {
			// Assigned only when real: a nil *sched.Costs stored into the
			// CostProvider interface would read as set and fail validation.
			params.Oracle, params.Truth = oracleSchedule, truthCosts
		}
		res, err := sched.OnlineLoop(ctx, params)
		if err != nil {
			fatal(err)
		}
		fmt.Println()
		report.OnlineRounds(os.Stdout, res.Rounds, oracleSchedule != nil)
		if oracleSchedule != nil {
			regret = res.Rounds[len(res.Rounds)-1].BestRegretPct
		}
		if repairs, migrated, retried := loopFaultTotals(res); repairs > 0 || retried > 0 {
			fmt.Printf("\nFault handling: %d repair pass(es), %d task(s) migrated, %d retry(ies); quarantined: %s\n",
				repairs, migrated, retried, orNone(res.Quarantined))
		}
		if *assertComplete {
			if err := checkComplete(res); err != nil {
				fatal(err)
			}
			fmt.Println("completeness: every reachable cell of the final schedule is measured; no failure on a surviving device")
		}
	} else if oracleSchedule != nil {
		// The prediction-built schedule may place tasks on devices the
		// truth sweep just quarantined; migrate those slots before grading,
		// exactly as the execution path would.
		graded := primarySchedule
		if len(known.Quarantined) > 0 {
			if graded, err = primarySchedule.Repair(known.Quarantined, primary, costs, schedOpt); err != nil {
				fatal(err)
			}
		}
		actual, err := graded.Retime(truthCosts)
		if err != nil {
			fatal(err)
		}
		regret = sched.Regret(actual, oracleSchedule)
		fmt.Printf("\nOracle (%s on measured costs): makespan %.3f ms; this schedule retimed: %.3f ms; regret %.2f%%\n",
			primary.Name(), oracleSchedule.MakespanNs/1e6, actual.MakespanNs/1e6, regret)
	}

	if *assertRegret > 0 {
		if regret > *assertRegret {
			fatal(fmt.Errorf("%s regret %.2f%% exceeds ceiling %.2f%%", primary.Name(), regret, *assertRegret))
		}
		fmt.Printf("%s regret %.2f%% within ceiling %.2f%%\n", primary.Name(), regret, *assertRegret)
	}
}

// loopFaultTotals sums the online loop's per-round fault accounting.
func loopFaultTotals(res *sched.LoopResult) (repairs, migrated, retried int) {
	for _, r := range res.Rounds {
		repairs += r.Repairs
		migrated += r.MigratedTasks
		retried += r.Retries
	}
	return
}

func orNone(devs []string) string {
	if len(devs) == 0 {
		return "none"
	}
	return strings.Join(devs, ", ")
}

// checkComplete is the -assert-complete gate over an online-loop result:
// every cell of the final round's (possibly repaired) schedule must be
// measured in the loop's knowledge grid, and no cell may have failed on a
// device that was not quarantined — a chaos sweep completes every
// reachable cell or the gate fails.
func checkComplete(res *sched.LoopResult) error {
	dead := map[string]bool{}
	for _, d := range res.Quarantined {
		dead[d] = true
	}
	final := res.Rounds[len(res.Rounds)-1].Schedule
	for _, sl := range final.Slots {
		if dead[sl.Device] {
			return fmt.Errorf("final schedule places %s on quarantined device %s", sl.TaskID, sl.Device)
		}
		if res.Grid.Find(sl.Benchmark, sl.Size, sl.Device) == nil {
			return fmt.Errorf("reachable cell %s/%s/%s was never measured", sl.Benchmark, sl.Size, sl.Device)
		}
	}
	for _, f := range res.Grid.Failed {
		if !dead[f.Device] {
			return fmt.Errorf("cell %s/%s failed on surviving device %s after %d attempt(s): %s",
				f.Benchmark, f.Size, f.Device, f.Attempts, f.Reason)
		}
	}
	for _, m := range res.Grid.Measurements {
		if dead[m.Device.ID] {
			return fmt.Errorf("measurement of %s/%s leaked onto quarantined device %s", m.Benchmark, m.Size, m.Device.ID)
		}
	}
	return nil
}

// buildWorkload assembles the workload from the JSON spec, the inline
// -tasks string, or the default (every benchmark at -size, falling back to
// its largest supported size).
func buildWorkload(reg *dwarfs.Registry, path, tasks, size string, count int) (*sched.Workload, error) {
	if path != "" && tasks != "" {
		return nil, fmt.Errorf("-workload and -tasks are mutually exclusive")
	}
	var spec sched.WorkloadSpec
	switch {
	case path != "":
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		dec := json.NewDecoder(strings.NewReader(string(raw)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	case tasks != "":
		for _, part := range cli.Split(tasks) {
			ts, err := parseTask(part)
			if err != nil {
				return nil, err
			}
			spec.Tasks = append(spec.Tasks, ts)
		}
	default:
		if !dwarfs.ValidSize(size) {
			return nil, fmt.Errorf("unknown size %q (valid: %v)", size, dwarfs.Sizes())
		}
		for _, b := range reg.All() {
			s := size
			if !dwarfs.SupportsSize(b, s) {
				s = b.Sizes()[len(b.Sizes())-1]
			}
			spec.Tasks = append(spec.Tasks, sched.TaskSpec{Benchmark: b.Name(), Size: s, Count: count})
		}
	}
	return spec.Expand(reg)
}

// parseTask decodes one inline "bench/size[:count]" entry.
func parseTask(s string) (sched.TaskSpec, error) {
	ts := sched.TaskSpec{Count: 1}
	if name, count, ok := strings.Cut(s, ":"); ok {
		n, err := strconv.Atoi(count)
		if err != nil || n <= 0 {
			return ts, fmt.Errorf("task %q: bad count %q", s, count)
		}
		ts.Count, s = n, name
	}
	bench, size, ok := strings.Cut(s, "/")
	if !ok {
		return ts, fmt.Errorf("task %q: want bench/size[:count]", s)
	}
	ts.Benchmark, ts.Size = bench, size
	return ts, nil
}

// comparisonPolicies resolves the -policies list, always including the
// primary policy.
func comparisonPolicies(list, primary string) ([]sched.Policy, error) {
	names := sched.Policies()
	if list != "all" {
		names = cli.Split(list)
	}
	seen := map[string]bool{}
	var out []sched.Policy
	for _, name := range append(names, primary) {
		if seen[name] {
			continue
		}
		seen[name] = true
		p, err := sched.LookupPolicy(name)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// storedGrid loads every decodable cell of the store as initial knowledge.
// The handle is closed again before the session opens its own.
func storedGrid(dir string) (*harness.Grid, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return harness.GridFromStore(st)
}

// runner adapts Session.Stream to the scheduler's Runner shape: it drains
// the stream into its grid, printing each completed cell's progress line
// to stderr when progress is set.
func runner(sess *opendwarfs.Session, progress bool) sched.Runner {
	return func(ctx context.Context, benches, sizes, devs []string) (*harness.Grid, error) {
		events, err := sess.Stream(ctx, opendwarfs.Selection{Benchmarks: benches, Sizes: sizes, Devices: devs})
		if err != nil {
			return nil, err
		}
		return harness.Drain(events, func(ev harness.Event) {
			if line := ev.ProgressLine(); progress && line != "" {
				fmt.Fprintln(os.Stderr, line)
			}
		})
	}
}

// measureRows measures each distinct workload row on the given devices —
// exactly those cells, one run per row (a row × devices selection is an
// exact cross product).
func measureRows(ctx context.Context, run sched.Runner, w *sched.Workload, devices []string) (*harness.Grid, error) {
	out := &harness.Grid{}
	for _, row := range w.Rows() {
		sub, err := run(ctx, []string{row[0]}, []string{row[1]}, devices)
		out.Merge(sub)
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// traceTracer/traceFile hold the -trace state so fatal() can flush the
// spans collected so far before exiting.
var (
	traceTracer *obs.Tracer
	traceFile   string
)

// flushTrace writes the Chrome trace, if -trace asked for one. Only
// completed spans are exported, so the file is valid even when an error
// or cancellation cut the run short.
func flushTrace() {
	tr := traceTracer
	traceTracer = nil // clear first: a failed write fatals, which re-enters here
	if tr == nil {
		return
	}
	if err := cli.WriteFile(traceFile, tr.WriteChromeTrace); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "Chrome trace (%d spans) written to %s\n", tr.Spans(), traceFile)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dwarfsched:", err)
	flushTrace()
	os.Exit(1)
}
