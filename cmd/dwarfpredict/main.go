// Command dwarfpredict closes the loop the paper's §7 opens: it measures a
// benchmark × size × device grid, assembles AIWC + device feature vectors
// from it, trains a deterministic random-forest regressor over log kernel
// time, and evaluates cross-device generalisation with leave-one-out
// cross-validation.
//
//	dwarfpredict                                # full grid, LODO + LOBO report
//	dwarfpredict -sizes tiny -mode lodo         # fast device-transfer check
//	dwarfpredict -holdout gtx1080 -benchmarks fft  # predict fft on an unseen device
//	dwarfpredict -csv preds.csv -jsonl preds.jsonl -dataset train.csv
//	dwarfpredict -sizes tiny -assert-mape 50    # CI smoke: exit 1 above ceiling
//
// The grid is measured by -parallel workers (RunGrid); forest training and
// cross-validation folds use the same worker-pool discipline. Every output
// is deterministic in (-seed, grid selection) and independent of worker
// count.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"slices"
	"sort"
	"strings"
	"syscall"

	"opendwarfs/internal/cli"
	"opendwarfs/internal/harness"
	"opendwarfs/internal/predict"
	"opendwarfs/internal/report"
	"opendwarfs/internal/scibench"
	"opendwarfs/internal/sim"
	"opendwarfs/internal/store"
	"opendwarfs/internal/suite"
)

func main() {
	def := predict.DefaultConfig()
	var (
		benchmarks = flag.String("benchmarks", "", "comma-separated benchmark names (default: all)")
		sizes      = flag.String("sizes", "", "comma-separated sizes (default: all supported)")
		devices    = flag.String("devices", "", "comma-separated device IDs (default: all 15)")
		parallel   = flag.Int("parallel", 0, "concurrent workers for grid, trees and folds (0 = GOMAXPROCS)")
		samples    = flag.Int("samples", scibench.PaperSampleSize(), "samples per grid cell")
		trees      = flag.Int("trees", def.Trees, "forest size")
		depth      = flag.Int("depth", def.MaxDepth, "maximum tree depth")
		minLeaf    = flag.Int("minleaf", def.MinLeaf, "minimum samples per leaf")
		seed       = flag.Int64("seed", def.Seed, "training seed (also the dataset seed)")
		mode       = flag.String("mode", "both", "cross-validation scheme: lodo, lobo, or both")
		holdout    = flag.String("holdout", "", "device ID: train without it, print its predicted vs actual cells")
		topN       = flag.Int("importance", 12, "feature-importance rows to print (0 = none)")
		csvPath    = flag.String("csv", "", "write cross-validation predictions as CSV")
		jsonlPath  = flag.String("jsonl", "", "write cross-validation predictions as JSONL")
		dataPath   = flag.String("dataset", "", "write the assembled training matrix as CSV")
		assertMAPE = flag.Float64("assert-mape", 0, "fail unless LODO median per-device LogMAPE ≤ this (%; 0 = off)")
		progress   = flag.Bool("progress", false, "print per-cell grid progress")
		storeDir   = flag.String("store", "", "persistent result store directory: reuse cells measured by dwarfsweep/dwarfbench, persist the rest")
	)
	flag.Parse()

	// Fail flag mistakes before the expensive grid measurement.
	if *mode != "lodo" && *mode != "lobo" && *mode != "both" {
		fatal(fmt.Errorf("unknown -mode %q (want lodo, lobo or both)", *mode))
	}
	if *holdout != "" {
		if *assertMAPE > 0 {
			fatal(fmt.Errorf("-assert-mape gates cross-validation and cannot be combined with -holdout"))
		}
		spec, err := sim.Lookup(*holdout)
		if err != nil {
			fatal(err)
		}
		*holdout = spec.ID
		inGrid := func(id string) bool {
			d, err := sim.Lookup(id)
			return err == nil && d.ID == spec.ID
		}
		if ids := cli.Split(*devices); len(ids) > 0 && !slices.ContainsFunc(ids, inGrid) {
			fatal(fmt.Errorf("-holdout %s is not among -devices %s", spec.ID, *devices))
		}
	}

	opt := harness.DefaultOptions()
	opt.Samples = *samples
	opt.Seed = *seed
	spec := harness.GridSpec{
		Benchmarks: cli.Split(*benchmarks),
		Sizes:      cli.Split(*sizes),
		Devices:    cli.Split(*devices),
		Options:    opt,
		Workers:    *parallel,
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			fatal(err)
		}
		defer st.Close()
		spec.Store = st
	}

	// Ctrl-C cancels the measurement sweep; with -store the completed
	// cells persist and a re-run resumes from them.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	events, err := harness.Stream(ctx, suite.New(), spec)
	if err != nil {
		fatal(err)
	}
	grid, err := harness.Drain(events, func(ev harness.Event) {
		if line := ev.ProgressLine(); *progress && line != "" {
			fmt.Fprintln(os.Stderr, line)
		}
	})
	if err != nil {
		if grid.Cells() > 0 && *storeDir != "" {
			fatal(fmt.Errorf("%w (%d completed cells persisted)", err, grid.Cells()))
		}
		fatal(err)
	}
	report.StoreStats(os.Stdout, grid)
	ds, err := predict.FromGrid(grid)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("Training data: %d cells (%d benchmarks × %d devices), %d features each\n",
		len(ds.Rows), len(ds.Benchmarks()), len(ds.Devices()), len(ds.FeatureNames))

	cfg := predict.Config{
		Trees: *trees, MaxDepth: *depth, MinLeaf: *minLeaf,
		FeatureFrac: def.FeatureFrac, Seed: *seed, Workers: *parallel,
	}

	if *dataPath != "" {
		if err := cli.WriteFile(*dataPath, func(w io.Writer) error { return predict.WriteDatasetCSV(w, ds) }); err != nil {
			fatal(err)
		}
		fmt.Printf("Training matrix written to %s\n", *dataPath)
	}

	if *holdout != "" {
		preds := predictHoldout(ds, cfg, *holdout)
		writeExports(*csvPath, *jsonlPath, preds)
		return
	}

	if *topN > 0 {
		forest, err := predict.Train(ds, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println()
		report.FeatureImportanceTable(os.Stdout, forest, *topN)
	}

	var lodo *predict.CVResult
	var preds []predict.Prediction
	if *mode == "lodo" || *mode == "both" {
		lodo, err = predict.LeaveOneDeviceOut(ds, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println()
		report.PredictionAccuracy(os.Stdout, lodo)
		preds = append(preds, lodo.Predictions()...)
	}
	if *mode == "lobo" || *mode == "both" {
		lobo, err := predict.LeaveOneBenchmarkOut(ds, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println()
		report.PredictionAccuracy(os.Stdout, lobo)
		preds = append(preds, lobo.Predictions()...)
	}

	writeExports(*csvPath, *jsonlPath, preds)

	if *assertMAPE > 0 {
		if lodo == nil {
			fatal(fmt.Errorf("-assert-mape requires -mode lodo or both"))
		}
		got := lodo.MedianFoldLogMAPE()
		if got > *assertMAPE {
			fatal(fmt.Errorf("LODO median per-device LogMAPE %.2f%% exceeds ceiling %.2f%%", got, *assertMAPE))
		}
		fmt.Printf("\nLODO median per-device LogMAPE %.2f%% within ceiling %.2f%%\n", got, *assertMAPE)
	}
}

// predictHoldout trains with one device's cells excluded and prints (and
// returns, for export) the predicted-versus-actual pairs for exactly those
// cells — the §7 scenario of estimating a benchmark's runtime on hardware
// it never ran on.
func predictHoldout(ds *predict.Dataset, cfg predict.Config, device string) []predict.Prediction {
	held, rest := ds.Split(func(r *predict.Row) bool { return r.Device == device })
	if len(held) == 0 {
		known := ds.Devices()
		sort.Strings(known)
		fatal(fmt.Errorf("device %q has no cells in the measured grid (known: %s)",
			device, strings.Join(known, ", ")))
	}
	forest, err := predict.TrainRows(ds.FeatureNames, rest, cfg)
	if err != nil {
		fatal(err)
	}
	var preds []predict.Prediction
	for i := range held {
		r := &held[i]
		logPred := forest.Predict(r.Features)
		pNs := math.Exp(logPred)
		preds = append(preds, predict.Prediction{
			Benchmark: r.Benchmark, Size: r.Size, Device: r.Device, Fold: device,
			ActualNs: r.MedianNs, PredNs: pNs,
			APE:    100 * math.Abs(pNs-r.MedianNs) / r.MedianNs,
			LogAPE: 100 * math.Abs(logPred-r.LogNs) / math.Abs(r.LogNs),
		})
	}
	fmt.Printf("\nPredictions for held-out device %s (trained on %d cells from %d other devices)\n",
		device, len(rest), len(ds.Devices())-1)
	report.HeldOutPredictions(os.Stdout, preds)
	return preds
}

// writeExports writes predicted-versus-actual pairs to the requested
// CSV/JSONL paths, if any.
func writeExports(csvPath, jsonlPath string, preds []predict.Prediction) {
	if csvPath != "" {
		if err := cli.WriteFile(csvPath, func(w io.Writer) error { return predict.WritePredictionsCSV(w, preds) }); err != nil {
			fatal(err)
		}
		fmt.Printf("\nPredictions written to %s\n", csvPath)
	}
	if jsonlPath != "" {
		if err := cli.WriteFile(jsonlPath, func(w io.Writer) error { return predict.WritePredictionsJSONL(w, preds) }); err != nil {
			fatal(err)
		}
		fmt.Printf("Predictions written to %s\n", jsonlPath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dwarfpredict:", err)
	os.Exit(1)
}
