// Command figures regenerates every table and figure of the paper's
// evaluation from the simulated suite:
//
//	Table 1  hardware catalogue           -only table1
//	Table 2  workload scale parameters Φ  -only table2
//	Table 3  program arguments            -only table3
//	Fig 1    crc × 4 sizes × 15 devices   -only fig1
//	Fig 2a-e kmeans lud csr dwt fft       -only fig2a … fig2e
//	Fig 3a-b srad nw                      -only fig3a, fig3b
//	Fig 4a-c gem nqueens hmm (one size)   -only fig4a … fig4c
//	Fig 5    energy, large, i7 vs GTX1080 -only fig5
//
// Default is everything. -quick lowers the sample count and skips
// functional execution for a fast regeneration pass; -outdir writes one CSV
// per figure for external plotting.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/harness"
	"opendwarfs/internal/report"
	"opendwarfs/internal/scibench"
	"opendwarfs/internal/suite"
)

// figureBench maps figure IDs onto benchmarks and the sizes they plot.
var figures = []struct {
	id    string
	bench string
	sizes []string
}{
	{"fig1", "crc", dwarfs.Sizes()},
	{"fig2a", "kmeans", dwarfs.Sizes()},
	{"fig2b", "lud", dwarfs.Sizes()},
	{"fig2c", "csr", dwarfs.Sizes()},
	{"fig2d", "dwt", dwarfs.Sizes()},
	{"fig2e", "fft", dwarfs.Sizes()},
	{"fig3a", "srad", dwarfs.Sizes()},
	{"fig3b", "nw", dwarfs.Sizes()},
	{"fig4a", "gem", []string{dwarfs.SizeTiny}},
	{"fig4b", "nqueens", []string{dwarfs.SizeTiny}},
	{"fig4c", "hmm", []string{dwarfs.SizeTiny}},
}

// fig5Benches are the applications of Figure 5's energy panels.
var fig5Benches = []string{"kmeans", "lud", "csr", "fft", "dwt", "gem", "srad", "crc"}

func main() {
	var (
		only    = flag.String("only", "", "render a single item (table1..3, fig1..fig5)")
		quick   = flag.Bool("quick", false, "fast pass: 10 samples, timing model only")
		samples = flag.Int("samples", scibench.PaperSampleSize(), "samples per group")
		outdir  = flag.String("outdir", "", "write per-figure CSV files to this directory")
		boxes   = flag.Bool("boxes", true, "render ASCII box plots")
	)
	flag.Parse()

	reg := suite.New()
	want := func(id string) bool { return *only == "" || *only == id }

	if want("table1") {
		report.Table1Hardware(os.Stdout)
		fmt.Println()
	}
	if want("table2") {
		report.Table2Sizes(os.Stdout, reg)
		fmt.Println()
	}
	if want("table3") {
		report.Table3Args(os.Stdout, reg)
		fmt.Println()
	}

	opt := harness.DefaultOptions()
	opt.Samples = *samples
	if *quick {
		opt.Samples = 10
		opt.MaxFunctionalOps = 0
		opt.Verify = false
	}

	// Collect the benchmarks any requested figure needs.
	needed := map[string][]string{}
	for _, f := range figures {
		if want(f.id) {
			needed[f.bench] = f.sizes
		}
	}
	if want("fig5") {
		// Figure 5 plots the large size; make sure it is measured even for
		// benchmarks whose own figure uses a single smaller size (gem).
		for _, b := range fig5Benches {
			sizes, ok := needed[b]
			if !ok {
				needed[b] = dwarfs.Sizes()
				continue
			}
			hasLarge := false
			for _, s := range sizes {
				if s == dwarfs.SizeLarge {
					hasLarge = true
				}
			}
			if !hasLarge {
				needed[b] = append(append([]string{}, sizes...), dwarfs.SizeLarge)
			}
		}
	}
	if len(needed) == 0 {
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	grid := &harness.Grid{}
	for bench, sizes := range needed {
		events, err := harness.Stream(ctx, reg, harness.GridSpec{
			Benchmarks: []string{bench},
			Sizes:      sizes,
			Options:    opt,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		var g *harness.Grid
		for ev := range events {
			if line := ev.ProgressLine(); line != "" {
				fmt.Fprintln(os.Stderr, line)
			}
			if ev.Kind == harness.EventGridDone {
				g, err = ev.Grid, ev.Err
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		grid.Merge(g)
	}

	for _, f := range figures {
		if !want(f.id) {
			continue
		}
		fmt.Printf("\n===== %s (%s) =====\n", f.id, f.bench)
		report.FigureSeries(os.Stdout, grid, f.bench, f.sizes)
		if *boxes {
			for _, size := range f.sizes {
				report.FigureBoxes(os.Stdout, grid, f.bench, size, 56)
			}
		}
		if *outdir != "" {
			if err := writeCSV(*outdir, f.id, grid, f.bench); err != nil {
				fmt.Fprintln(os.Stderr, "figures:", err)
				os.Exit(1)
			}
		}
	}
	if want("fig5") {
		fmt.Printf("\n===== fig5 (energy) =====\n")
		report.Figure5Energy(os.Stdout, grid, fig5Benches)
	}
}

func writeCSV(dir, id string, grid *harness.Grid, bench string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, id+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	report.FigureCSV(f, grid, bench)
	return nil
}
