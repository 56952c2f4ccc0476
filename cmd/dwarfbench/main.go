// Command dwarfbench runs one Extended OpenDwarfs benchmark on one device,
// the way the paper invokes each application (§4.4.5):
//
//	dwarfbench -b kmeans -size tiny -p 0 -d 0 -t 0
//	dwarfbench -b srad -size large -device gtx1080 -csv out.csv
//	dwarfbench -b fft -size all -parallel 4
//
// Device selection supports both the paper's platform/device/type triplet
// (-p/-d/-t) and direct catalogue IDs (-device). The tool prints the Table 3
// argument string it reproduces, the measured statistics, and optionally the
// raw LibSciBench-style samples as CSV or JSONL. -size accepts a single
// size, a comma-separated list, or "all"; multi-size runs go through the
// grid harness, where -parallel workers share one preparation per size.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/harness"
	"opendwarfs/internal/opencl"
	"opendwarfs/internal/report"
	"opendwarfs/internal/scibench"
	"opendwarfs/internal/store"
	"opendwarfs/internal/suite"
)

func main() {
	var (
		benchName = flag.String("b", "", "benchmark name (kmeans, lud, csr, fft, dwt, srad, crc, nw, gem, nqueens, hmm)")
		size      = flag.String("size", "tiny", "problem size(s): tiny, small, medium, large, a comma-separated list, or all")
		parallel  = flag.Int("parallel", 0, "concurrent workers for multi-size runs (0 = GOMAXPROCS)")
		deviceID  = flag.String("device", "", "device catalogue ID (e.g. i7-6700k); overrides -p/-d/-t")
		platform  = flag.Int("p", 0, "platform index (paper notation)")
		device    = flag.Int("d", 0, "device index within platform")
		devType   = flag.Int("t", 0, "device type: 0=CPU, 1=GPU, 2=accelerator")
		samples   = flag.Int("samples", scibench.PaperSampleSize(), "samples per group (paper: 50)")
		csvPath   = flag.String("csv", "", "write raw samples as CSV")
		jsonlPath = flag.String("jsonl", "", "write raw samples as JSONL")
		list      = flag.Bool("list", false, "list benchmarks and devices, then exit")
		aiwcFlag  = flag.Bool("aiwc", false, "print AIWC kernel characterisation (§7)")
		storeDir  = flag.String("store", "", "persistent result store directory shared with dwarfsweep/dwarfserve")
	)
	flag.Parse()

	reg := suite.New()
	if *list {
		fmt.Println("Benchmarks (Table 2 order):")
		for _, b := range reg.All() {
			fmt.Printf("  %-8s %-28s sizes %v\n", b.Name(), b.Dwarf(), b.Sizes())
		}
		fmt.Println("\nDevices (Table 1 order):")
		for _, d := range opencl.AllDevices() {
			fmt.Printf("  %-12s %-18s %s\n", d.ID(), d.Name(), d.Spec.Class)
		}
		return
	}
	if *benchName == "" {
		fatal(fmt.Errorf("missing -b; use -list to see benchmarks"))
	}
	b, err := reg.Get(*benchName)
	if err != nil {
		fatal(err)
	}

	var dev *opencl.Device
	if *deviceID != "" {
		dev, err = opencl.LookupDevice(*deviceID)
	} else {
		dev, err = opencl.Select(*platform, *device, opencl.DeviceType(*devType))
	}
	if err != nil {
		fatal(err)
	}

	opt := harness.DefaultOptions()
	opt.Samples = *samples

	// Every run goes through the grid harness, so -store shares its
	// read/write path with dwarfsweep.
	spec := harness.GridSpec{
		Benchmarks: []string{b.Name()},
		Sizes:      sizeList(*size, b),
		Devices:    []string{dev.ID()},
		Options:    opt,
		Workers:    *parallel,
	}
	if *storeDir != "" {
		// Assigned only when opened: a typed-nil pointer in
		// GridSpec.Store would read as "store attached".
		st, err := store.Open(*storeDir)
		if err != nil {
			fatal(err)
		}
		defer st.Close()
		spec.Store = st
	}

	// Ctrl-C cancels cleanly: with -store, completed cells stay persisted.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if len(spec.Sizes) > 1 {
		runSizes(ctx, reg, b, dev, spec, *csvPath, *jsonlPath, *aiwcFlag)
		return
	}
	if *parallel != 0 {
		fmt.Fprintln(os.Stderr, "dwarfbench: -parallel has no effect on a single-size run")
	}

	fmt.Printf("Benchmark : %s (%s dwarf)\n", b.Name(), b.Dwarf())
	fmt.Printf("Arguments : %s %s\n", b.Name(), b.ArgString(spec.Sizes[0]))
	fmt.Printf("Device    : %s (%s, %s)\n", dev.Name(), dev.Spec.Class, dev.Spec.Series)

	g, err := harness.RunGrid(ctx, reg, spec)
	if err != nil {
		fatal(err)
	}
	m := g.Measurements[0]
	report.StoreStats(os.Stdout, g)

	mode := "timing model"
	if m.Verified {
		mode = "functional, verified against serial reference"
	} else if m.Functional {
		mode = "functional"
	}
	fmt.Printf("Mode      : %s\n", mode)
	fmt.Printf("Footprint : %.1f KiB device-side (Eq. 1 accounting verified)\n", float64(m.FootprintBytes)/1024)
	fmt.Printf("Loop      : %d iterations per sample (≥2 s rule), %d kernel launches/iteration\n", m.Iterations, m.KernelLaunches)
	fmt.Printf("Kernel    : median %.4f ms  mean %.4f ms  CV %.3f  CI95 [%.4f, %.4f] ms\n",
		m.Kernel.Median/1e6, m.Kernel.Mean/1e6, m.Kernel.CV, m.Kernel.CI95Lo/1e6, m.Kernel.CI95Hi/1e6)
	fmt.Printf("Transfer  : median %.4f ms per iteration\n", m.Transfer.Median/1e6)
	fmt.Printf("Energy    : median %.4f J per iteration via %s\n", m.Energy.Median, m.MeterScope)
	fmt.Printf("Counters  : %s\n", m.Counters)

	if *aiwcFlag {
		fmt.Println()
		g := &harness.Grid{Measurements: []*harness.Measurement{m}}
		report.AIWCTable(os.Stdout, g)
	}

	writeSamples(*csvPath, *jsonlPath, m.Records)
}

// sizeList expands the -size flag: "all" means every size the benchmark
// supports; otherwise a comma-separated list, every entry of which must be
// supported — a typo'd size is an error here, not a silent skip.
func sizeList(flagVal string, b dwarfs.Benchmark) []string {
	if strings.TrimSpace(flagVal) == "all" {
		return b.Sizes()
	}
	var sizes []string
	seen := map[string]bool{}
	for _, s := range strings.Split(flagVal, ",") {
		if s = strings.TrimSpace(s); s != "" {
			if !dwarfs.SupportsSize(b, s) {
				fatal(fmt.Errorf("%s does not support size %q (has %v)", b.Name(), s, b.Sizes()))
			}
			if seen[s] {
				fatal(fmt.Errorf("duplicate size %q in -size", s))
			}
			seen[s] = true
			sizes = append(sizes, s)
		}
	}
	if len(sizes) == 0 {
		fatal(fmt.Errorf("empty -size"))
	}
	return sizes
}

// runSizes measures one benchmark × device across several sizes through
// the grid harness, sharing one preparation per size across workers.
func runSizes(ctx context.Context, reg *dwarfs.Registry, b dwarfs.Benchmark, dev *opencl.Device, spec harness.GridSpec, csvPath, jsonlPath string, aiwc bool) {
	fmt.Printf("Benchmark : %s (%s dwarf), sizes %v\n", b.Name(), b.Dwarf(), spec.Sizes)
	fmt.Printf("Device    : %s (%s, %s)\n", dev.Name(), dev.Spec.Class, dev.Spec.Series)
	events, err := harness.Stream(ctx, reg, spec)
	if err != nil {
		fatal(err)
	}
	var g *harness.Grid
	for ev := range events {
		if line := ev.ProgressLine(); line != "" {
			fmt.Println(line)
		}
		if ev.Kind == harness.EventGridDone {
			g, err = ev.Grid, ev.Err
		}
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%d cells measured\n", g.Cells())
	report.StoreStats(os.Stdout, g)

	if aiwc {
		fmt.Println()
		report.AIWCTable(os.Stdout, g)
	}
	writeSamples(csvPath, jsonlPath, func() []scibench.Record {
		var recs []scibench.Record
		for _, m := range g.Measurements {
			recs = append(recs, m.Records()...)
		}
		return recs
	})
}

// writeSamples writes the raw LibSciBench-style sample records to the
// requested CSV and/or JSONL paths. records is only invoked when at least
// one output path is set.
func writeSamples(csvPath, jsonlPath string, records func() []scibench.Record) {
	if csvPath == "" && jsonlPath == "" {
		return
	}
	recs := records()
	if csvPath != "" {
		if err := writeFile(csvPath, func(f *os.File) error {
			return scibench.WriteCSV(f, recs)
		}); err != nil {
			fatal(err)
		}
		fmt.Printf("Samples   : CSV written to %s\n", csvPath)
	}
	if jsonlPath != "" {
		if err := writeFile(jsonlPath, func(f *os.File) error {
			return scibench.WriteJSONL(f, recs)
		}); err != nil {
			fatal(err)
		}
		fmt.Printf("Samples   : JSONL written to %s\n", jsonlPath)
	}
}

func writeFile(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return fn(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dwarfbench:", err)
	os.Exit(1)
}
