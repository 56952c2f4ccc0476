// Command dwarfsweep measures a slice of the benchmark × size × device grid
// and emits the per-cell statistics, reproducing the paper's full-suite
// sweeps. By default it covers every benchmark, size and device; flags
// narrow each axis.
//
//	dwarfsweep -benchmarks crc,srad -sizes tiny,large -csv sweep.csv
//
// -csv and -jsonl export the raw per-sample records (the same
// LibSciBench-style schema dwarfbench emits — machine-readable training
// data for cmd/dwarfpredict); -figcsv exports the per-cell figure series
// used for plotting.
//
// Cells are measured by -parallel concurrent workers (default: one per
// CPU); each benchmark × size row is prepared once and shared across all
// of its devices, and the resulting grid is identical at every worker
// count.
//
// -store makes sweeps incremental and durable: cells already present in the
// store (same benchmark, size, seed, device spec, options and code schema)
// are served from disk, only missing cells are measured, and new results
// are appended for the next run — or for cmd/dwarfserve to serve. An
// unchanged re-sweep is a 100% hit and its exports are byte-identical;
// -assert-store-hits turns that into a CI gate.
//
// -trace records a span per grid, cell, preparation and measurement
// attempt and writes them as a Chrome trace-event file — drop it on
// https://ui.perfetto.dev (or chrome://tracing) to see the sweep's
// worker-lane timeline.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"opendwarfs/internal/faults"
	"opendwarfs/internal/harness"
	"opendwarfs/internal/obs"
	"opendwarfs/internal/report"
	"opendwarfs/internal/scibench"
	"opendwarfs/internal/store"
	"opendwarfs/internal/suite"
)

func main() {
	var (
		benchmarks = flag.String("benchmarks", "", "comma-separated benchmark names (default: all)")
		sizes      = flag.String("sizes", "", "comma-separated sizes (default: all supported)")
		devices    = flag.String("devices", "", "comma-separated device IDs (default: all 15)")
		parallel   = flag.Int("parallel", 0, "concurrent grid workers (0 = GOMAXPROCS, 1 = sequential)")
		samples    = flag.Int("samples", scibench.PaperSampleSize(), "samples per group")
		budget     = flag.Float64("funcops", harness.DefaultOptions().MaxFunctionalOps, "functional execution budget in operations (0 = timing model only)")
		csvPath    = flag.String("csv", "", "write raw per-sample records as CSV (dwarfbench schema)")
		jsonlPath  = flag.String("jsonl", "", "write raw per-sample records as JSONL (dwarfbench schema)")
		figCSVPath = flag.String("figcsv", "", "write per-cell figure series CSV")
		boxes      = flag.Bool("boxes", false, "render ASCII box plots per benchmark × size")
		compare    = flag.String("compare", "", "two device IDs 'a,b': Welch t-test per benchmark × size")
		storeDir   = flag.String("store", "", "persistent result store directory: cached cells are read, missing cells measured and written")
		assertHits = flag.Float64("assert-store-hits", -1, "fail unless the store hit rate is ≥ this percentage (requires -store)")
		compact    = flag.Bool("compact", false, "compact the store into a single snapshot after the sweep (requires -store)")
		retries    = flag.Int("retries", 0, "measurement attempts per cell (0/1 = no retry); cells that exhaust them are reported and skipped")
		backoff    = flag.Duration("retry-backoff", 5*time.Millisecond, "base delay before a retry, doubled per attempt")
		chaos      = flag.Bool("chaos", false, "inject deterministic faults into the sweep (see -chaos-* flags)")
		chaosSeed  = flag.Int64("chaos-seed", 1, "fault plan seed: same seed, same faults, any worker count")
		chaosRate  = flag.Float64("chaos-transient", 0.2, "per-attempt transient fault probability")
		chaosDrop  = flag.String("chaos-drop", "", "comma-separated devices that fail permanently (quarantined on first touch)")
		tracePath  = flag.String("trace", "", "write a Chrome trace-event file of the sweep (open in Perfetto or chrome://tracing)")
	)
	flag.Parse()
	if *storeDir == "" && (*assertHits >= 0 || *compact) {
		fmt.Fprintln(os.Stderr, "dwarfsweep: -assert-store-hits and -compact require -store")
		os.Exit(1)
	}

	opt := harness.DefaultOptions()
	opt.Samples = *samples
	opt.MaxFunctionalOps = *budget
	if *budget == 0 {
		opt.Verify = false
	}
	spec := harness.GridSpec{
		Benchmarks: split(*benchmarks),
		Sizes:      split(*sizes),
		Devices:    split(*devices),
		Options:    opt,
		Workers:    *parallel,
		Retry:      harness.RetryPolicy{MaxAttempts: *retries, BaseBackoff: *backoff},
	}
	if *chaos {
		plan := &faults.Plan{Seed: *chaosSeed, TransientRate: *chaosRate, Drop: split(*chaosDrop)}
		if err := plan.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, "dwarfsweep:", err)
			os.Exit(1)
		}
		spec.Faults = plan
	}
	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer()
		spec.Tracer = tracer
	}
	var st *store.Store
	if *storeDir != "" {
		opened, err := store.Open(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dwarfsweep:", err)
			os.Exit(1)
		}
		st = opened
		spec.Store = opened
	}

	// SIGINT/SIGTERM cancel the sweep instead of killing it: workers stop,
	// in-flight cells abort at their next context check, and every
	// completed cell has already been persisted to the store.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The sweep is driven off the typed event stream: one progress line
	// per completed cell, then the terminal grid_done carries the grid.
	events, err := harness.Stream(ctx, suite.New(), spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dwarfsweep:", err)
		os.Exit(1)
	}
	var grid *harness.Grid
	var runErr error
	for ev := range events {
		switch ev.Kind {
		case harness.EventCellDone, harness.EventStoreHit:
			fmt.Println(ev.ProgressLine())
		case harness.EventCellRetry:
			fmt.Fprintf(os.Stderr, "retry %-8s %-7s %-12s attempt %d failed (%s); retrying\n",
				ev.Benchmark, ev.Size, ev.Device, ev.Attempt, ev.Reason)
		case harness.EventCellFailed:
			fmt.Fprintf(os.Stderr, "FAILED %-8s %-7s %-12s after %d attempt(s): %s\n",
				ev.Benchmark, ev.Size, ev.Device, ev.Attempt, ev.Reason)
		case harness.EventDeviceQuarantined:
			fmt.Fprintf(os.Stderr, "QUARANTINED %s: %s; remaining cells on it will fail fast\n",
				ev.Device, ev.Reason)
		case harness.EventGridDone:
			grid, runErr = ev.Grid, ev.Err
		}
	}
	// The stream has settled, so every span — even those of a cancelled
	// sweep — is closed; the trace is always well-formed.
	if tracer != nil {
		writeExport(*tracePath, func(f *os.File) error { return tracer.WriteChromeTrace(f) })
		fmt.Fprintf(os.Stderr, "Chrome trace (%d spans) written to %s\n", tracer.Spans(), *tracePath)
	}
	if runErr != nil {
		// A stopped sweep's grid holds the cells completed before the
		// stop, each persisted before its progress line was printed.
		verb := "cancelled"
		if !errors.Is(runErr, context.Canceled) {
			fmt.Fprintln(os.Stderr, "dwarfsweep:", runErr)
			verb = "failed"
		}
		fmt.Fprintf(os.Stderr, "dwarfsweep: sweep %s after %d completed cells", verb, grid.Cells())
		if st != nil {
			fmt.Fprintf(os.Stderr, " (all persisted to %s; re-running resumes from them)", *storeDir)
		}
		fmt.Fprintln(os.Stderr)
		if st != nil {
			report.StoreStats(os.Stdout, grid)
			st.Close()
		}
		os.Exit(1)
	}
	fmt.Printf("\n%d grid cells measured in %s\n", grid.Cells(), grid.Elapsed.Round(1e6))
	// A grid with failed cells is still a valid (partial) sweep: report the
	// holes and exit 0 — re-running against the same store backfills them.
	if grid.Retries > 0 || len(grid.Failed) > 0 {
		fmt.Printf("Fault summary: %d retry(ies), %d failed cell(s)", grid.Retries, len(grid.Failed))
		if len(grid.Quarantined) > 0 {
			fmt.Printf(", quarantined: %s", strings.Join(grid.Quarantined, ","))
		}
		fmt.Println()
		for _, f := range grid.Failed {
			fmt.Printf("  failed %-8s %-7s %-12s after %d attempt(s): %s\n",
				f.Benchmark, f.Size, f.Device, f.Attempts, f.Reason)
		}
	}
	if st != nil {
		report.StoreStats(os.Stdout, grid)
		if *compact {
			if err := st.Compact(); err != nil {
				fmt.Fprintln(os.Stderr, "dwarfsweep:", err)
				os.Exit(1)
			}
		}
		if err := st.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "dwarfsweep:", err)
			os.Exit(1)
		}
		if *assertHits >= 0 && grid.HitRate() < *assertHits {
			fmt.Fprintf(os.Stderr, "dwarfsweep: store hit rate %.1f%% below required %.1f%%\n", grid.HitRate(), *assertHits)
			os.Exit(1)
		}
	}

	if *boxes {
		seen := map[string]bool{}
		for _, m := range grid.Measurements {
			key := m.Benchmark + "/" + m.Size
			if seen[key] {
				continue
			}
			seen[key] = true
			report.FigureBoxes(os.Stdout, grid, m.Benchmark, m.Size, 60)
		}
	}

	if *compare != "" {
		pair := split(*compare)
		if len(pair) != 2 {
			fmt.Fprintln(os.Stderr, "dwarfsweep: -compare wants exactly two device IDs")
			os.Exit(1)
		}
		compareDevices(grid, pair[0], pair[1])
	}

	if *csvPath != "" || *jsonlPath != "" {
		recs := gridRecords(grid)
		if *csvPath != "" {
			writeExport(*csvPath, func(f *os.File) error { return scibench.WriteCSV(f, recs) })
			fmt.Printf("Samples CSV written to %s\n", *csvPath)
		}
		if *jsonlPath != "" {
			writeExport(*jsonlPath, func(f *os.File) error { return scibench.WriteJSONL(f, recs) })
			fmt.Printf("Samples JSONL written to %s\n", *jsonlPath)
		}
	}

	if *figCSVPath != "" {
		writeExport(*figCSVPath, func(f *os.File) error {
			writeFigureCSV(f, grid)
			return nil
		})
		fmt.Printf("Figure series CSV written to %s\n", *figCSVPath)
	}
}

// gridRecords flattens every cell's raw sample records, grid order — the
// machine-readable training data consumed by external models and the
// counterpart of dwarfbench's -csv/-jsonl export.
func gridRecords(grid *harness.Grid) []scibench.Record {
	var recs []scibench.Record
	for _, m := range grid.Measurements {
		recs = append(recs, m.Records()...)
	}
	return recs
}

// writeFigureCSV emits the per-cell figure series of every benchmark with a
// single shared header.
func writeFigureCSV(f *os.File, grid *harness.Grid) {
	seen := map[string]bool{}
	first := true
	for _, m := range grid.Measurements {
		if seen[m.Benchmark] {
			continue
		}
		seen[m.Benchmark] = true
		if !first {
			// FigureCSV writes its own header; only keep the first.
			var sb strings.Builder
			report.FigureCSV(&sb, grid, m.Benchmark)
			body := strings.SplitN(sb.String(), "\n", 2)
			if len(body) == 2 {
				fmt.Fprint(f, body[1])
			}
			continue
		}
		report.FigureCSV(f, grid, m.Benchmark)
		first = false
	}
}

func writeExport(path string, fn func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dwarfsweep:", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := fn(f); err != nil {
		fmt.Fprintln(os.Stderr, "dwarfsweep:", err)
		os.Exit(1)
	}
}

// compareDevices runs Welch's t-test between two devices on every
// benchmark × size both measured — the statistically sound "is A faster
// than B here?" answer the paper's 50-sample methodology enables (§4.3).
func compareDevices(grid *harness.Grid, a, b string) {
	fmt.Printf("\nWelch t-test: %s vs %s (kernel time samples)\n", a, b)
	fmt.Printf("%-9s %-8s %12s %12s %9s %7s  %s\n", "benchmark", "size", a+" (ms)", b+" (ms)", "t", "p", "verdict")
	seen := map[string]bool{}
	for _, m := range grid.Measurements {
		key := m.Benchmark + "/" + m.Size
		if seen[key] {
			continue
		}
		seen[key] = true
		ma := grid.Find(m.Benchmark, m.Size, a)
		mb := grid.Find(m.Benchmark, m.Size, b)
		if ma == nil || mb == nil {
			continue
		}
		tstat, _, p := scibench.WelchTTest(ma.KernelNs, mb.KernelNs)
		verdict := "no significant difference"
		if p < 0.05 {
			if tstat < 0 {
				verdict = a + " faster"
			} else {
				verdict = b + " faster"
			}
		}
		fmt.Printf("%-9s %-8s %12.4f %12.4f %9.2f %7.4f  %s\n",
			m.Benchmark, m.Size, ma.Kernel.Median/1e6, mb.Kernel.Median/1e6, tstat, p, verdict)
	}
}

func split(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
