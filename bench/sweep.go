package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"opendwarfs/internal/harness"
	"opendwarfs/internal/scibench"
	"opendwarfs/internal/store"
	"opendwarfs/internal/suite"
)

// reference is the untimed sequential sweep every invocation starts with.
// Its CSV digests are the correctness oracle of every rep, and its store
// seeds the fixture: the same cells without the held-out devices.
type reference struct {
	grid      *harness.Grid
	wall      time.Duration
	fixture   string // store directory holding the kept devices' cells
	digestAll string // CSV digest of every cell
	digestKep string // CSV digest of the kept devices' cells
	kept      int    // cells in the fixture
	rows      [][2]string
	cell      map[string]*harness.Measurement // by cellID
}

func cellID(bench, size, device string) string { return bench + "\x00" + size + "\x00" + device }

func buildReference(ctx context.Context, cfg *config) (*reference, error) {
	dir := filepath.Join(cfg.work, "reference")
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	spec := harness.GridSpec{
		Benchmarks: cfg.sel.Benchmarks,
		Sizes:      cfg.sel.Sizes,
		Devices:    cfg.sel.Devices,
		Options:    options(cfg.seed),
		Workers:    1,
		Store:      st,
	}
	start := time.Now()
	g, err := harness.RunGrid(ctx, suite.New(), spec)
	if err != nil {
		return nil, fmt.Errorf("reference sweep: %w", err)
	}
	ref := &reference{grid: g, wall: time.Since(start), cell: map[string]*harness.Measurement{}}
	if len(g.Failed) > 0 {
		return nil, fmt.Errorf("reference sweep: %d cells failed", len(g.Failed))
	}

	ref.rows = gridRows(g)
	var kept []*harness.Measurement
	for _, m := range g.Measurements {
		ref.cell[cellID(m.Benchmark, m.Size, m.Device.ID)] = m
		if !isHeld(m.Device.ID) {
			kept = append(kept, m)
		}
	}
	ref.kept = len(kept)
	if ref.digestAll, err = digest(g.Measurements); err != nil {
		return nil, err
	}
	if ref.digestKep, err = digest(kept); err != nil {
		return nil, err
	}

	ref.fixture = filepath.Join(cfg.work, "fixture")
	fx, err := store.Open(ref.fixture)
	if err != nil {
		return nil, err
	}
	for _, rec := range st.Records() {
		if isHeld(rec.Device) {
			continue
		}
		if err := fx.Put(*rec); err != nil {
			fx.Close()
			return nil, err
		}
	}
	if err := fx.Close(); err != nil {
		return nil, err
	}
	return ref, nil
}

// digest hashes the cells' raw-sample CSV export, the byte-identical
// artefact a sweep promises at every worker count and from the store.
func digest(ms []*harness.Measurement) (string, error) {
	var recs []scibench.Record
	for _, m := range ms {
		recs = append(recs, m.Records()...)
	}
	h := sha256.New()
	if err := scibench.WriteCSV(h, recs); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// spawnRep runs one rep in a fresh child process. Repeated sweeps inside
// one process drift with its heap and slot-cache history; a fresh process
// per rep is what a dwarfsweep user runs, and its timings repeat. The
// set-up time is the child's time from exec until its store is open and it
// is about to sweep.
func spawnRep(ctx context.Context, cfg *config, spec repSpec) (repOut, error) {
	arg, err := json.Marshal(spec)
	if err != nil {
		return repOut{}, err
	}
	cmd := exec.CommandContext(ctx, cfg.self, "-rep", string(arg))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return repOut{}, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return repOut{}, err
	}
	var out repOut
	var setup time.Duration
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	var lines []string
	for sc.Scan() {
		if sc.Text() == readyLine && setup == 0 {
			setup = time.Since(start)
			continue
		}
		lines = append(lines, sc.Text())
	}
	if err := cmd.Wait(); err != nil {
		return repOut{}, fmt.Errorf("rep child: %w", err)
	}
	if len(lines) == 0 || setup == 0 {
		return repOut{}, fmt.Errorf("rep child printed no result")
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		return repOut{}, fmt.Errorf("rep child result: %w", err)
	}
	out.SetupS = setup.Seconds()
	return out, nil
}

// sweepPlan is what one sweep workload runs and what a correct rep returns.
type sweepPlan struct {
	devices      []string
	fromFixture  bool
	hits, misses int
	digest       string
}

func (r *run) plan(ref *reference) sweepPlan {
	all := len(ref.grid.Measurements)
	switch r.cfg.workload {
	case coldSweep:
		return sweepPlan{devices: r.cfg.sel.Devices, misses: all, digest: ref.digestAll}
	case warmResweep:
		return sweepPlan{devices: r.cfg.devices(false), fromFixture: true, hits: ref.kept, digest: ref.digestKep}
	default: // addDevices
		return sweepPlan{devices: r.cfg.sel.Devices, fromFixture: true, hits: ref.kept, misses: all - ref.kept, digest: ref.digestAll}
	}
}

// repStore returns the directory of a fresh store for rep i: empty, or a
// copy of the fixture. The caller removes it.
func (r *run) repStore(ref *reference, p sweepPlan, i int) (string, error) {
	dir, err := filepath.Abs(filepath.Join(r.cfg.work, fmt.Sprintf("rep-%d", i)))
	if err != nil {
		return "", err
	}
	if p.fromFixture {
		if err := copyDir(ref.fixture, dir); err != nil {
			os.RemoveAll(dir)
			return "", err
		}
	}
	return dir, nil
}

// rep prepares a fresh store for rep i, runs it in a child process, and
// records whether its output was correct.
func (r *run) rep(ctx context.Context, ref *reference, p sweepPlan, i, workers int, trace string) (repOut, error) {
	dir, err := r.repStore(ref, p, i)
	if err != nil {
		return repOut{}, err
	}
	defer os.RemoveAll(dir)
	sel := r.cfg.sel
	sel.Devices = p.devices
	out, err := spawnRep(ctx, &r.cfg, repSpec{Store: dir, Sel: sel, Seed: r.cfg.seed, Workers: workers, Sweep: true, Trace: trace})
	if err != nil {
		return out, err
	}
	r.op(p.check(out))
	return out, nil
}

func (p sweepPlan) check(out repOut) error {
	switch {
	case out.Err != "":
		return fmt.Errorf("rep: %s", out.Err)
	case out.Hits != p.hits || out.Misses != p.misses:
		return fmt.Errorf("rep: %d hits, %d misses; want %d, %d", out.Hits, out.Misses, p.hits, p.misses)
	case out.Digest != p.digest:
		return fmt.Errorf("rep: CSV digest %s differs from the sequential reference %s", out.Digest, p.digest)
	}
	return nil
}

// setUpOnly times one more set-up in a fresh child that opens a store
// prepared as rep i's is, then exits without sweeping.
func (r *run) setUpOnly(ctx context.Context, ref *reference, p sweepPlan, i int) (float64, error) {
	dir, err := r.repStore(ref, p, i)
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	out, err := spawnRep(ctx, &r.cfg, repSpec{Store: dir})
	if err == nil && out.Err != "" {
		err = fmt.Errorf("set-up: %s", out.Err)
	}
	return out.SetupS, err
}

// minReps keeps a run's medians meaningful when a rep is slow relative to
// the time budget; a quick run makes exactly quickReps. Each rep is
// followed by extraSetUps set-up-only children: a cold rep's set-up is a
// few milliseconds of process start, and one sample per rep left its
// median spreading by 9% over ten seeds.
const (
	minReps     = 3
	quickReps   = 2
	extraSetUps = 2
)

// moreReps reports whether rep i should run: reps repeat until the time
// budget is spent.
func (r *run) moreReps(i int, start time.Time) bool {
	if r.cfg.quick {
		return i < quickReps
	}
	return i < minReps || time.Since(start) < r.cfg.budget
}

func (r *run) sweep(ctx context.Context, ref *reference) error {
	p := r.plan(ref)
	if r.cfg.trace {
		return r.sweepTraced(ctx, ref, p)
	}
	cal := &calibrator{workers: r.cfg.workers, short: true}
	var outs []repOut
	var marks, setupMarks []int
	var rawSetup []float64
	start := time.Now()
	for i := 0; r.moreReps(i, start); i++ {
		marks = append(marks, cal.mark())
		out, err := r.rep(ctx, ref, p, i, r.cfg.workers, "")
		if err != nil {
			return err
		}
		outs = append(outs, out)
		setupMarks, rawSetup = append(setupMarks, marks[i]), append(rawSetup, out.SetupS)
		for k := 0; k < extraSetUps; k++ {
			setupMarks = append(setupMarks, cal.mark())
			s, err := r.setUpOnly(ctx, ref, p, i)
			if err != nil {
				return err
			}
			rawSetup = append(rawSetup, s)
		}
	}
	cal.probe()

	// Cell latencies are rescaled by the short probe: a cell runs for a
	// fraction of a millisecond and is rarely descheduled, so taking CPU
	// time away leaves its median in place while it slows the speed probe.
	var grid, setup, rss, alloc, cells, rawGrid, rawCells []float64
	for i, out := range outs {
		grid = append(grid, out.GridS*cal.runFactor())
		rss, alloc = append(rss, out.RSSMB), append(alloc, out.AllocMB)
		f := cal.shortFactor(marks[i])
		for _, ms := range out.CellMs {
			cells = append(cells, ms*f)
		}
		rawGrid, rawCells = append(rawGrid, out.GridS), append(rawCells, out.CellMs...)
	}
	for i, s := range rawSetup {
		setup = append(setup, s*cal.factor(setupMarks[i]))
	}
	r.timingE2E("grid_s", "s", grid)
	r.timingE2E("setup_s", "s", setup)
	r.timingE2E("rss_mb", "MiB", rss)
	r.timingE2E("alloc_mb", "MiB", alloc)
	r.timingE2E("latency_ms", "ms", cells)
	r.detail("raw_grid_s", rawGrid)
	r.detail("raw_setup_s", rawSetup)
	r.detail("raw_latency_ms", rawCells)
	r.detail("probe_s", cal.probes)
	r.detail("short_probe_s", cal.shorts)
	return nil
}

// sweepTraced runs three reps: untraced at full width and at one worker,
// then traced at one worker, where spans do not overlap and self time
// attributes cleanly. The two one-worker reps give the tracing overhead.
func (r *run) sweepTraced(ctx context.Context, ref *reference, p sweepPlan) error {
	if err := os.MkdirAll(r.cfg.traceDir, 0o755); err != nil {
		return err
	}
	prefix, err := filepath.Abs(filepath.Join(r.cfg.traceDir, r.cfg.workload))
	if err != nil {
		return err
	}
	// Each rep is marked for calibration, so drift between them does not
	// read as parallel speed-up or tracing overhead.
	cal := &calibrator{workers: r.cfg.workers}
	var outs [3]repOut
	var marks [3]int
	for i, rs := range []struct {
		workers int
		trace   string
	}{{r.cfg.workers, ""}, {1, ""}, {1, prefix}} {
		marks[i] = cal.mark()
		if outs[i], err = r.rep(ctx, ref, p, i, rs.workers, rs.trace); err != nil {
			return err
		}
	}
	cal.probe()
	par, seq, tr := outs[0], outs[1], outs[2]
	parS, seqS, trS := par.GridS*cal.factor(marks[0]), seq.GridS*cal.factor(marks[1]), tr.GridS*cal.factor(marks[2])

	r.op(checkLayerSum(tr))
	for name, m := range tr.Layers {
		r.setLayer(name, m.Unit, m.Value)
	}
	r.setLayer("harness.cell_p50_ms", "ms", median(seq.CellMs))
	r.setLayer("harness.cell_p99_ms", "ms", percentile(seq.CellMs, 0.99))
	r.setLayer("harness.parallel_speedup", "ratio", seqS/parS)
	r.setLayer("obs.trace_overhead_pct", "%", 100*(trS-seqS)/seqS)
	return nil
}

// layerSumSlack, in seconds, is the least gap checkLayerSum allows:
// starting and draining the event stream lie outside every span, a fixed
// cost that exceeds a tenth of a grid of only a few cells.
const layerSumSlack = 0.002

// checkLayerSum verifies that the traced grid's per-layer self times
// account for its wall time, timed outside the spans, to within a tenth.
// Self times are clamped at zero, so sibling spans that overlap, as in a
// rep traced at more than one worker, sum to more than the wall time, and
// grid work outside every span leaves the sum short of it.
func checkLayerSum(tr repOut) error {
	if tr.GridS <= 0 || math.Abs(tr.LayerSumS-tr.GridS) > max(0.1*tr.GridS, layerSumSlack) {
		return fmt.Errorf("traced grid: per-layer self times sum to %.4f s, grid took %.4f s", tr.LayerSumS, tr.GridS)
	}
	return nil
}
