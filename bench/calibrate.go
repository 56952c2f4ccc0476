package main

// Machine-speed calibration. On a shared machine the same sweep drifts by
// ±20% over minutes, far beyond any useful regression bound, and medians
// over more reps do not remove a drift that outlasts the run. So every
// timed operation is bracketed by a speed probe — a fixed load owned by the
// benchmark, never by the program, so no change to the program moves it —
// and end-to-end times are reported rescaled to a machine on which the
// probe takes probeNominal: t × probeNominal / probe. A sweep's cell
// latencies are rescaled the same way by a short probe, whose units are as
// short as a cell. The raw medians stay in the detail line.

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// probeNominal is the probe time, in seconds, of the machine that
	// calibrated times are expressed for: about what it takes on the
	// 2-vCPU machine the bounds were set on.
	probeNominal = 0.2
	// probeChunks sizes the probe, per worker; a longer probe is a steadier
	// one.
	probeChunks = 12
	// probeInterval is the most time a calibrated operation may start
	// after the previous probe.
	probeInterval = time.Second
	// probeWindow is how many probes on each side of an operation its
	// rescaling averages. Successive probes differ by about a tenth, while
	// the drift they correct builds over tens of seconds. Over ten seeds
	// per workload, averaging three a side rather than taking the two
	// bracketing probes narrowed the run-to-run spread of eight of nine
	// timings.
	probeWindow = 3
	// shortNominal is the median short-unit time, in seconds, of the
	// machine that calibrated cell latencies are expressed for.
	shortNominal = 100e-6
	// shortUnits is how many short units a probe times.
	shortUnits = 400
)

// probeSink keeps the probe's arithmetic from being optimised away.
var probeSink float64

// speedProbe runs the probe load on the given number of goroutines — the
// program's width — and returns its wall time in seconds. The load mixes
// what the program does: small pointer-rich allocations the collector must
// trace, large slices streamed through memory, and sorting. The goroutines
// pull it in small chunks, as the grid's workers pull cells, so a CPU the
// hypervisor takes away slows the probe by the capacity lost, as it slows
// the grid. Split into fixed halves, the probe waits for the slower half;
// so built, it slowed by more than twice as much as the sweeps did while the
// hypervisor took CPU time away.
func speedProbe(workers int) float64 {
	type node struct {
		v    float64
		next *node
	}
	sums := make([]float64, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := range sums {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for c := next.Add(1); c <= probeChunks*int64(workers); c = next.Add(1) {
				rng := rand.New(rand.NewSource(c))
				var head *node
				for i := 0; i < 75000; i++ {
					head = &node{v: rng.Float64(), next: head}
				}
				for n := head; n != nil; n = n.next {
					sums[w] += n.v
				}
				xs := make([]float64, 1<<19)
				for i := range xs {
					xs[i] = rng.Float64()
				}
				sort.Float64s(xs[:50000])
				sums[w] += xs[0]
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	for _, s := range sums {
		probeSink += s
	}
	return elapsed
}

// shortProbe times shortUnits small units of the probe's load one after
// another on one goroutine and returns the median unit time in seconds. A
// unit takes about as long as a store hit, so, like a hit, it is rarely
// descheduled: its median follows the machine's speed, not the CPU time
// other work takes away, which slows speedProbe.
func shortProbe() float64 {
	type node struct {
		v    float64
		next *node
	}
	rng := rand.New(rand.NewSource(1))
	ts := make([]float64, shortUnits)
	xs := make([]float64, 4096)
	for u := range ts {
		start := time.Now()
		var head *node
		for i := 0; i < 1500; i++ {
			head = &node{v: rng.Float64(), next: head}
		}
		for n := head; n != nil; n = n.next {
			probeSink += n.v
		}
		for i := range xs {
			xs[i] = rng.Float64()
		}
		sort.Float64s(xs[:1024])
		probeSink += xs[0]
		ts[u] = time.Since(start).Seconds()
	}
	return median(ts)
}

// calibrator keeps the probe sequence of a run. An operation records the
// index of the last probe before it with mark; once a probe has also run
// after it, factor rescales its times.
type calibrator struct {
	workers int
	short   bool // also run shortProbe with every probe
	probes  []float64
	shorts  []float64 // shortProbe times, one per probe
	last    time.Time
}

// probe runs a probe now.
func (c *calibrator) probe() {
	c.probes = append(c.probes, speedProbe(c.workers))
	if c.short {
		c.shorts = append(c.shorts, shortProbe())
	}
	c.last = time.Now()
}

// mark probes if the last probe is older than probeInterval, and returns
// the index of the probe that precedes the operation about to start.
func (c *calibrator) mark() int {
	if len(c.probes) == 0 || time.Since(c.last) >= probeInterval {
		c.probe()
	}
	return len(c.probes) - 1
}

// factor is the rescaling of an operation marked k: the nominal probe time
// over the mean of the probeWindow probes before the operation and the
// probeWindow after it, fewer at the ends of the run. The run's closing
// probe must have run.
func (c *calibrator) factor(k int) float64 {
	return rescale(c.probes, probeNominal, k)
}

// shortFactor is factor for an operation as short as a store hit.
func (c *calibrator) shortFactor(k int) float64 {
	return rescale(c.shorts, shortNominal, k)
}

// runFactor rescales by the median of every probe of the run. For a sweep
// rep, which keeps both cores busy for seconds, the probes' jitter, about
// a tenth between neighbours, outweighs the drift within one run: sweep
// times rescaled this way spread less over ten seeds than with factor's
// window (bench/README.md has the numbers).
func (c *calibrator) runFactor() float64 {
	return probeNominal / median(c.probes)
}

func rescale(probes []float64, nominal float64, k int) float64 {
	window := probes[max(0, k+1-probeWindow):min(len(probes), k+1+probeWindow)]
	sum := 0.0
	for _, p := range window {
		sum += p
	}
	return nominal / (sum / float64(len(window)))
}
