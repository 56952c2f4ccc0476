// Command sizer demonstrates the paper's §4.4 problem-size selection
// methodology: for each benchmark and size it computes the device-side
// memory footprint (Eq. 1 accounting), reports which level of the Skylake
// i7-6700K hierarchy it lands in, and flags violations of the tiny≤L1,
// small≤L2, medium≤L3, large≥4×L3 rules. With -trace it additionally runs
// the kmeans walk-through of §4.4.1: a trace-driven set-associative cache
// simulation of cyclic sweeps over each footprint, showing the miss-rate
// cliff at every capacity boundary.
package main

import (
	"flag"
	"fmt"
	"os"

	"opendwarfs/internal/cache"
	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/opencl"
	"opendwarfs/internal/report"
	"opendwarfs/internal/suite"
)

// Skylake capacities (Table 1).
const (
	l1KiB = 32
	l2KiB = 256
	l3KiB = 8192
)

func main() {
	var (
		benchName = flag.String("b", "", "restrict to one benchmark")
		trace     = flag.Bool("trace", false, "run the trace-driven cache simulation walk-through")
	)
	flag.Parse()

	reg := suite.New()
	benches := reg.All()
	if *benchName != "" {
		b, err := reg.Get(*benchName)
		if err != nil {
			fatal(err)
		}
		benches = benches[:0]
		benches = append(benches, b)
	}

	dev, err := opencl.LookupDevice("i7-6700k")
	if err != nil {
		fatal(err)
	}

	fmt.Println("Problem-size methodology (§4.4): footprints vs the Skylake hierarchy")
	fmt.Printf("L1 %d KiB | L2 %d KiB | L3 %d KiB | large ≥ %d KiB (4×L3)\n\n", l1KiB, l2KiB, l3KiB, 4*l3KiB)

	headers := []string{"Benchmark", "Size", "Φ", "Footprint (KiB)", "Lands in", "Rule"}
	var rows [][]string
	for _, b := range benches {
		for _, size := range b.Sizes() {
			inst, err := b.New(size, 1)
			if err != nil {
				fatal(err)
			}
			// Allocate for real so the context accounting (the paper's
			// "sum of the size of all memory allocated on the device")
			// confirms the declared footprint.
			ctx, _ := opencl.NewContext(dev)
			q, _ := opencl.NewQueue(ctx, dev)
			if err := inst.Setup(ctx, q); err != nil {
				fatal(err)
			}
			if err := dwarfs.CheckFootprint(inst, ctx); err != nil {
				fatal(err)
			}
			kib := float64(inst.FootprintBytes()) / 1024
			rows = append(rows, []string{
				b.Name(), size, b.ScaleParameter(size),
				fmt.Sprintf("%.1f", kib), landsIn(kib), ruleCheck(b.Name(), size, kib),
			})
		}
	}
	report.Table(os.Stdout, headers, rows)

	if *trace {
		traceWalkthrough()
	}
}

func landsIn(kib float64) string {
	switch {
	case kib <= l1KiB:
		return "L1"
	case kib <= l2KiB:
		return "L2"
	case kib <= l3KiB:
		return "L3"
	default:
		return "DRAM"
	}
}

// ruleCheck applies the §4.4 sizing rules. Benchmarks with paper-mandated
// fixed datasets (gem's molecules, nqueens, hmm) are exempt where the paper
// says sizes could not be controlled (§4.4.4). Cells that inherit the
// paper's own Table 2 parameters but still miss the stated rule — kmeans
// large reaches only 13.5 MiB, crc large fits in L3 — are reported as
// "off-rule (paper Φ)": the tool reproduces the published parameters, it
// does not silently fix them.
func ruleCheck(bench, size string, kib float64) string {
	exempt := bench == "nqueens" || bench == "hmm" || bench == "gem"
	ok := true
	switch size {
	case dwarfs.SizeTiny:
		ok = kib <= l1KiB
	case dwarfs.SizeSmall:
		ok = kib <= l2KiB*1.01 // allow generator rounding at the boundary
	case dwarfs.SizeMedium:
		ok = kib <= l3KiB*1.01
	case dwarfs.SizeLarge:
		ok = kib >= 4*l3KiB
	}
	switch {
	case ok:
		return "ok"
	case exempt:
		return "exempt (§4.4.4)"
	default:
		return "off-rule (paper Φ)"
	}
}

// traceWalkthrough reproduces the §4.4.1 verification: cyclically stream
// working sets sized for each level through a simulated Skylake hierarchy
// and print the per-level miss rates, which collapse exactly when the set
// fits — the PAPI counter evidence of the paper, from a cache simulator.
func traceWalkthrough() {
	fmt.Println("\nTrace-driven verification (kmeans walk-through, §4.4.1):")
	fmt.Println("five cyclic passes over each working set; miss rates per level")
	headers := []string{"Working set", "L1 miss", "L2 miss", "L3 miss", "Served by"}
	var rows [][]string
	for _, ws := range []struct {
		label string
		bytes uint64
	}{
		{"28 KiB (tiny: 256 pts × 26 feat)", 28 << 10},
		{"217 KiB (small: 2048 pts)", 217 << 10},
		{"6.9 MiB (medium: 65600 pts)", 7085320},
		{"13.5 MiB (large: 131072 pts)", 14155776},
	} {
		h := cache.NewSkylakeTrace()
		served := make([]uint64, 4)
		for pass := 0; pass < 5; pass++ {
			for a := uint64(0); a < ws.bytes; a += 64 {
				served[h.Access(a)]++
			}
		}
		best := 0
		for i, s := range served {
			if s > served[best] {
				best = i
			}
		}
		names := []string{"L1", "L2", "L3", "DRAM"}
		rows = append(rows, []string{
			ws.label,
			fmt.Sprintf("%.3f", h.Caches[0].MissRate()),
			fmt.Sprintf("%.3f", h.Caches[1].MissRate()),
			fmt.Sprintf("%.3f", h.Caches[2].MissRate()),
			names[best],
		})
	}
	report.Table(os.Stdout, headers, rows)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sizer:", err)
	os.Exit(1)
}
