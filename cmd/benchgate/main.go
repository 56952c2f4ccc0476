// Command benchgate is the CI perf-regression gate. It parses `go test
// -bench` output from stdin, writes the per-benchmark results as JSON
// (benchmark name → ns/op, allocs/op and, under -benchmem, B/op), and —
// given a committed baseline — fails when any benchmark regresses beyond
// the tolerance factor:
//
//	go test ./internal/harness -run '^$' -bench RunGrid -benchtime 3x -benchmem |
//	    benchgate -baseline ci/BENCH_grid.json -out BENCH_grid.json -tol 2
//
// The tolerance is deliberately generous (default 2×): CI machines vary
// run to run, and the gate exists to catch order-of-magnitude losses of
// the parallel-harness and store wins, not single-digit noise. Benchmarks
// present in the baseline must still exist — deleting one without
// refreshing the baseline fails the gate. B/op is gated only for baseline
// entries that record it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's gated metrics. BytesPerOp is omitted when the
// run did not report B/op.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
}

func main() {
	var (
		outPath  = flag.String("out", "", "write parsed results as JSON (benchmark name → ns/op, allocs/op, B/op)")
		basePath = flag.String("baseline", "", "committed baseline JSON to gate against")
		tol      = flag.Float64("tol", 2.0, "regression tolerance factor per metric")
	)
	flag.Parse()

	cur, err := parseBench(os.Stdin)
	if err != nil {
		fatal(err)
	}
	if len(cur) == 0 {
		fatal(fmt.Errorf("no benchmark result lines on stdin"))
	}

	if *outPath != "" {
		// encoding/json sorts map keys, so the file diffs stably.
		buf, err := json.MarshalIndent(cur, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*outPath, append(buf, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("benchgate: %d benchmarks written to %s\n", len(cur), *outPath)
	}

	if *basePath == "" {
		return
	}
	raw, err := os.ReadFile(*basePath)
	if err != nil {
		fatal(err)
	}
	base := map[string]Result{}
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal(fmt.Errorf("%s: %w", *basePath, err))
	}

	violations := compare(base, cur, *tol)
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c, ok := cur[name]
		if !ok {
			continue
		}
		b := base[name]
		fmt.Printf("benchgate: %-28s ns/op %12.0f -> %12.0f (%.2fx)  allocs/op %10.0f -> %10.0f (%.2fx)  B/op %12.0f -> %12.0f (%.2fx)\n",
			name, b.NsPerOp, c.NsPerOp, ratio(c.NsPerOp, b.NsPerOp),
			b.AllocsPerOp, c.AllocsPerOp, ratio(c.AllocsPerOp, b.AllocsPerOp),
			b.BytesPerOp, c.BytesPerOp, ratio(c.BytesPerOp, b.BytesPerOp))
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "benchgate: REGRESSION:", v)
		}
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d benchmarks within %.1fx of baseline\n", len(base), *tol)
}

func ratio(cur, base float64) float64 {
	if base == 0 {
		return 0
	}
	return cur / base
}

// parseBench extracts ns/op, allocs/op and B/op from `go test -bench`
// output.
// Benchmark names are normalised by stripping the "Benchmark" prefix and
// the "-N" GOMAXPROCS suffix so baselines transfer across machines.
func parseBench(r io.Reader) (map[string]Result, error) {
	out := map[string]Result{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		res := Result{}
		found := false
		for i := 2; i+1 < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				res.NsPerOp = v
				found = true
			case "allocs/op":
				res.AllocsPerOp = v
			case "B/op":
				res.BytesPerOp = v
			}
		}
		if found {
			out[name] = res
		}
	}
	return out, sc.Err()
}

// compare returns one message per metric exceeding baseline × tol, and per
// baseline benchmark missing from the current run. B/op counts only where
// the baseline records it.
func compare(base, cur map[string]Result, tol float64) []string {
	var out []string
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base[name]
		c, ok := cur[name]
		if !ok {
			out = append(out, fmt.Sprintf("%s: present in baseline but not measured — refresh the baseline if it was renamed", name))
			continue
		}
		if c.NsPerOp > b.NsPerOp*tol {
			out = append(out, fmt.Sprintf("%s: %.0f ns/op exceeds baseline %.0f × %.1f", name, c.NsPerOp, b.NsPerOp, tol))
		}
		if c.AllocsPerOp > b.AllocsPerOp*tol {
			out = append(out, fmt.Sprintf("%s: %.0f allocs/op exceeds baseline %.0f × %.1f", name, c.AllocsPerOp, b.AllocsPerOp, tol))
		}
		if b.BytesPerOp > 0 && c.BytesPerOp > b.BytesPerOp*tol {
			out = append(out, fmt.Sprintf("%s: %.0f B/op exceeds baseline %.0f × %.1f", name, c.BytesPerOp, b.BytesPerOp, tol))
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
