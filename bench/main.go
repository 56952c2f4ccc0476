// Command bench is the repository benchmark. It measures the three
// end-to-end paths of the system — a cold sweep, a warm re-sweep from the
// store, and dwarfserve under mixed query and job traffic — and, in its
// traced mode, splits them into per-layer numbers. Run it from the
// repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh --workload cold_sweep --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it carries the
// machine provenance and every timing's quartiles and sample count. The
// metric names, units and bounds are declared in BENCHMARK.json at the
// repository root, which the run checks its output against. See
// bench/README.md for the workloads and the metric-to-layer map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"opendwarfs/internal/harness"
	"opendwarfs/internal/opencl"
)

// Workload names.
const (
	coldSweep   = "cold_sweep"
	warmResweep = "warm_resweep"
	addDevices  = "add_devices"
	serveMixed  = "serve_mixed"
)

// heldOut are the devices the fixture store lacks: add_devices and
// serve_mixed measure them onto an existing grid, and /v1/predict answers
// for them before they are measured (the paper's §7 scenario).
var heldOut = []string{"rx480", "knl-7210"}

// selection is one benchmark × size × device slice; empty axes mean all.
type selection struct {
	Benchmarks []string `json:"benchmarks,omitempty"`
	Sizes      []string `json:"sizes,omitempty"`
	Devices    []string `json:"devices"`
}

type config struct {
	workload string
	seed     int64 // dataset seed
	budget   time.Duration
	trace    bool
	traceDir string
	quick    bool
	workers  int    // grid workers and HTTP clients: one per CPU
	work     string // working directory of this run, removed at exit
	self     string // this binary, re-executed for every sweep rep
	sel      selection
}

// options returns the paper's measurement methodology at a dataset seed —
// what dwarfsweep and a default dwarfserve job use.
func options(seed int64) harness.Options {
	opt := harness.DefaultOptions()
	opt.Seed = seed
	return opt
}

// isHeld reports whether a device is one the fixture store lacks.
func isHeld(device string) bool {
	for _, d := range heldOut {
		if d == device {
			return true
		}
	}
	return false
}

// devices lists the selection's held-out devices, or the kept ones.
func (c *config) devices(held bool) []string {
	var out []string
	for _, d := range c.sel.Devices {
		if isHeld(d) == held {
			out = append(out, d)
		}
	}
	return out
}

func main() {
	rep := flag.String("rep", "", "internal: run one sweep rep described by this JSON spec (the parent re-executes itself with it)")
	workload := flag.String("workload", "", "workload: cold_sweep, warm_resweep, add_devices or serve_mixed")
	seed := flag.Int64("seed", 1, "input seed (≥ 0); the dataset seed is seed+1, so every seed is one a dwarfserve job accepts")
	secs := flag.Int("seconds", 20, "how long the run measures")
	trace := flag.Int("trace", 0, "1 runs the traced mode and prints the per-layer metrics instead of the end-to-end ones")
	traceDir := flag.String("trace-dir", ".bench_build/trace", "where the traced mode writes <workload>.trace.json and <workload>.spans.jsonl")
	quick := flag.Bool("quick", false, "smoke-test selection: crc and kmeans × tiny and small × 3 devices, 200 queries, 3 jobs")
	flag.Parse()
	if *rep != "" {
		os.Exit(runRep(*rep))
	}
	if *seed < 0 || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: want --seed ≥ 0, --seconds > 0 and --trace 0 or 1")
		os.Exit(2)
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	cfg := config{
		workload: *workload,
		seed:     *seed + 1,
		budget:   time.Duration(*secs) * time.Second,
		trace:    *trace == 1,
		traceDir: *traceDir,
		quick:    *quick,
		workers:  runtime.NumCPU(),
		self:     self,
		work:     filepath.Join(".bench_build", fmt.Sprintf("work-%d", os.Getpid())),
	}
	for _, d := range opencl.AllDevices() {
		cfg.sel.Devices = append(cfg.sel.Devices, d.ID())
	}
	if cfg.quick {
		cfg.sel = selection{
			Benchmarks: []string{"crc", "kmeans"},
			Sizes:      []string{"tiny", "small"},
			Devices:    []string{"i7-6700k", "rx480", "knl-7210"},
		}
	}
	os.Exit(benchMain(cfg))
}

func benchMain(cfg config) int {
	declared, err := loadDeclared("BENCHMARK.json", cfg.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.work)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	r := newRun(cfg)
	if err := r.execute(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := r.conform(declared); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	res := r.result()
	detail := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed - 1,
		"trace":      cfg.trace,
		"provenance": machine(),
		"timings":    r.timings,
	}
	line, _ := json.Marshal(detail)
	fmt.Println(string(line))
	line, _ = json.Marshal(res)
	fmt.Println(string(line))
	return 0
}

func (r *run) execute(ctx context.Context) error {
	switch r.cfg.workload {
	case coldSweep, warmResweep, addDevices, serveMixed:
	default:
		return fmt.Errorf("unknown workload %q (want %s, %s, %s or %s)", r.cfg.workload, coldSweep, warmResweep, addDevices, serveMixed)
	}
	ref, err := buildReference(ctx, &r.cfg)
	if err != nil {
		return err
	}
	r.setLayer("harness.sequential_s", "s", ref.wall.Seconds())
	if r.cfg.workload == serveMixed {
		return r.serve(ctx, ref)
	}
	return r.sweep(ctx, ref)
}
