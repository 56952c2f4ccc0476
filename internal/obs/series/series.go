// Package series retains recent history of an obs.Registry: a
// fixed-capacity ring buffer of periodic samples, each storing the
// *delta* of every counter and histogram bucket since the previous
// sample (gauges are absolute — they have no meaningful delta). The
// recorder answers the questions a point-in-time scrape cannot:
// per-counter rates, gauge min/max, and histogram percentiles over a
// trailing window, and it replays missed samples to a reconnecting
// streaming client.
//
// The sampling protocol is built for a long-running daemon: metric
// handles are resolved once per series (re-enumerated only when the
// registry's metric count moves) and then read lock-free, ring slots
// are recycled in place, so a steady-state Sample allocates only the
// subscriber-wakeup channel. Memory is bounded by Capacity regardless
// of process lifetime.
//
// Delta encoding is the reconciliation contract the CI gate asserts:
// a subscriber that receives one absolute snapshot Point and then every
// delta Point can reproduce the registry's counter values at any sample
// boundary by summation, exactly — counters and bucket counts are
// int64, so the sum has no floating-point drift.
//
// The clock is injected (Options.Clock) so tests and deterministic
// replays control time; the default routes through the package's single
// annotated wall-clock seam.
package series

import (
	"sort"
	"sync"
	"time"

	"opendwarfs/internal/obs"
)

// wallclock is the package's declared wall-clock seam: sample
// timestamps describe when this host observed the registry, which is
// wall-clock by design. Deterministic users inject Options.Clock.
//
//lint:allow detrand sample timestamps are the series recorder's declared wall-clock seam
var wallclock = time.Now

// Options configures a Recorder. The zero value is usable: 600 samples
// of capacity, a 1s interval, the wall clock.
type Options struct {
	// Capacity is the number of retained samples (default 600 — ten
	// minutes at the default interval).
	Capacity int
	// Interval is the sampling period the recorder's owner ticks Sample
	// on, reported by Recorder.Interval (default 1s).
	Interval time.Duration
	// Clock supplies sample timestamps (default: the wall clock).
	Clock func() time.Time
}

// histColumn tracks one histogram series between samples.
type histColumn struct {
	h         *obs.Histogram
	bounds    []float64
	prev      []int64 // absolute bucket counts at the last sample
	prevCount int64
	prevSum   float64
}

// histDelta is one histogram's movement within one sample.
type histDelta struct {
	count   int64
	sum     float64
	buckets []int64
}

// sample is one ring slot. Slices are column-indexed and may be shorter
// than the current column set — columns created after this sample read
// as zero. Slot memory is recycled on overwrite.
type sample struct {
	seq      uint64
	unixNs   int64
	counters []int64
	gauges   []float64
	hists    []histDelta
}

// Recorder samples a registry into a ring of delta-encoded points and
// answers windowed queries over them. All methods are safe for
// concurrent use.
type Recorder struct {
	reg *obs.Registry
	opt Options

	mu sync.Mutex

	// Column registry: one slot per metric series, append-only, resolved
	// from the registry only when its metric counts move.
	counterNames   []string
	counterHandles []*obs.Counter
	counterPrev    []int64 // absolutes at the last sample
	counterIdx     map[string]int
	gaugeNames     []string
	gaugeHandles   []*obs.Gauge
	gaugeLast      []float64
	gaugeIdx       map[string]int
	histNames      []string
	histCols       []*histColumn
	histIdx        map[string]int
	nC, nG, nH     int // registry counts at the last column sync

	ring    []sample
	n       int // valid samples in the ring
	next    int // ring slot the next sample writes
	seq     uint64
	scratch []int64       // reused histogram read buffer
	notify  chan struct{} // closed and replaced on every sample
}

// New returns a recorder over reg. A nil registry is tolerated (samples
// are empty); see Options for defaults.
func New(reg *obs.Registry, opt Options) *Recorder {
	if opt.Capacity <= 0 {
		opt.Capacity = 600
	}
	if opt.Interval <= 0 {
		opt.Interval = time.Second
	}
	if opt.Clock == nil {
		opt.Clock = wallclock
	}
	return &Recorder{
		reg:        reg,
		opt:        opt,
		counterIdx: map[string]int{},
		gaugeIdx:   map[string]int{},
		histIdx:    map[string]int{},
		ring:       make([]sample, opt.Capacity),
		notify:     make(chan struct{}),
	}
}

// Interval returns the configured sampling period.
func (r *Recorder) Interval() time.Duration { return r.opt.Interval }

// syncColumnsLocked folds newly registered metrics into the column set.
// Cheap when nothing changed: three map-length reads on the registry.
func (r *Recorder) syncColumnsLocked() {
	c, g, h := r.reg.NumMetrics()
	if c == r.nC && g == r.nG && h == r.nH {
		return
	}
	cn, gn, hn := r.reg.MetricNames()
	for _, name := range cn {
		if _, ok := r.counterIdx[name]; ok {
			continue
		}
		r.counterIdx[name] = len(r.counterNames)
		r.counterNames = append(r.counterNames, name)
		r.counterHandles = append(r.counterHandles, r.reg.Counter(name))
		r.counterPrev = append(r.counterPrev, 0)
	}
	for _, name := range gn {
		if _, ok := r.gaugeIdx[name]; ok {
			continue
		}
		r.gaugeIdx[name] = len(r.gaugeNames)
		r.gaugeNames = append(r.gaugeNames, name)
		r.gaugeHandles = append(r.gaugeHandles, r.reg.Gauge(name))
		r.gaugeLast = append(r.gaugeLast, 0)
	}
	for _, name := range hn {
		if _, ok := r.histIdx[name]; ok {
			continue
		}
		hh := r.reg.Histogram(name, nil)
		r.histIdx[name] = len(r.histNames)
		r.histNames = append(r.histNames, name)
		r.histCols = append(r.histCols, &histColumn{
			h:      hh,
			bounds: hh.Bounds(),
			prev:   make([]int64, hh.NumBuckets()),
		})
	}
	r.nC, r.nG, r.nH = c, g, h
}

// Sample takes one sample: reads every tracked metric, stores the
// deltas in the next ring slot (recycling its memory), and wakes
// streaming followers. Returns the new sample's sequence number
// (monotonic from 1).
func (r *Recorder) Sample() uint64 {
	ts := r.opt.Clock().UnixNano()
	r.mu.Lock()
	r.syncColumnsLocked()

	s := &r.ring[r.next]
	r.next = (r.next + 1) % len(r.ring)
	if r.n < len(r.ring) {
		r.n++
	}
	r.seq++
	s.seq = r.seq
	s.unixNs = ts

	s.counters = s.counters[:0]
	for i, h := range r.counterHandles {
		v := h.Value()
		s.counters = append(s.counters, v-r.counterPrev[i])
		r.counterPrev[i] = v
	}
	s.gauges = s.gauges[:0]
	for i, h := range r.gaugeHandles {
		v := h.Value()
		s.gauges = append(s.gauges, v)
		r.gaugeLast[i] = v
	}
	if cap(s.hists) < len(r.histCols) {
		grown := make([]histDelta, len(r.histCols))
		copy(grown, s.hists)
		s.hists = grown
	}
	s.hists = s.hists[:len(r.histCols)]
	for i, col := range r.histCols {
		hd := &s.hists[i]
		r.scratch = col.h.AppendCounts(r.scratch[:0])
		hd.buckets = hd.buckets[:0]
		for j, v := range r.scratch {
			var p int64
			if j < len(col.prev) {
				p = col.prev[j]
			}
			hd.buckets = append(hd.buckets, v-p)
		}
		copy(col.prev, r.scratch)
		c, sum := col.h.Count(), col.h.Sum()
		hd.count, hd.sum = c-col.prevCount, sum-col.prevSum
		col.prevCount, col.prevSum = c, sum
	}

	seq := r.seq
	close(r.notify)
	r.notify = make(chan struct{})
	r.mu.Unlock()
	return seq
}

// Notify returns the channel closed by the next Sample — the follower
// wakeup for streaming handlers (re-fetch after every wakeup).
func (r *Recorder) Notify() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.notify
}

// LastSample reports the latest sample's sequence number and timestamp
// (zeros before the first sample) — what an SLO evaluation tick needs
// without building a wire snapshot.
func (r *Recorder) LastSample() (seq uint64, unixNs int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 {
		return 0, 0
	}
	s := r.at(r.n - 1)
	return s.seq, s.unixNs
}

// Stats reports total samples taken, samples currently retained, and
// the ring capacity.
func (r *Recorder) Stats() (samples uint64, retained, capacity int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq, r.n, len(r.ring)
}

// at returns the i-th retained sample in chronological order (0 is the
// oldest). Callers hold r.mu.
func (r *Recorder) at(i int) *sample {
	idx := (r.next - r.n + i + len(r.ring)) % len(r.ring)
	return &r.ring[idx]
}

// anchorLocked resolves a trailing window against the ring: the anchor
// is the newest sample at or before (latest − window) — the baseline
// deltas are measured from — and first..last are the chronological
// indexes whose deltas fall inside the window. ok is false with fewer
// than two samples (no interval to measure over).
func (r *Recorder) anchorLocked(window time.Duration) (anchor, first, last int, ok bool) {
	if r.n < 2 {
		return 0, 0, 0, false
	}
	last = r.n - 1
	cut := r.at(last).unixNs - window.Nanoseconds()
	anchor = 0
	for i := last - 1; i >= 0; i-- {
		if r.at(i).unixNs <= cut {
			anchor = i
			break
		}
	}
	return anchor, anchor + 1, last, true
}

// counterDeltaLocked sums counter column c's deltas over the
// chronological samples first..last; a sample older than the column
// reads 0.
func (r *Recorder) counterDeltaLocked(c, first, last int) int64 {
	var sum int64
	for i := first; i <= last; i++ {
		if s := r.at(i); c < len(s.counters) {
			sum += s.counters[c]
		}
	}
	return sum
}

// gaugeWindowLocked returns gauge column g's min, max and latest value
// over the samples anchor..last — the anchor's value is the gauge's
// state at the window's left edge. seen is false when the column
// postdates all of them.
func (r *Recorder) gaugeWindowLocked(g, anchor, last int) (gw GaugeWindowSummary, seen bool) {
	for i := anchor; i <= last; i++ {
		s := r.at(i)
		if g >= len(s.gauges) {
			continue // column postdates the sample
		}
		v := s.gauges[g]
		if !seen {
			gw.Min, gw.Max, seen = v, v, true
		} else {
			if v < gw.Min {
				gw.Min = v
			}
			if v > gw.Max {
				gw.Max = v
			}
		}
		gw.Last = v
	}
	return gw, seen
}

// histWindowLocked reconstitutes histogram column h's movement over the
// samples first..last as a snapshot: observation count, sum and bucket
// counts, whose quantiles come from HistogramSnapshot.Quantile — one
// bucket-interpolation implementation for live scrapes and windows alike.
func (r *Recorder) histWindowLocked(h, first, last int) obs.HistogramSnapshot {
	col := r.histCols[h]
	hs := obs.HistogramSnapshot{Bounds: col.bounds, Counts: make([]int64, len(col.prev))}
	for i := first; i <= last; i++ {
		s := r.at(i)
		if h >= len(s.hists) {
			continue
		}
		hd := &s.hists[h]
		hs.Count += hd.count
		hs.Sum += hd.sum
		for j, d := range hd.buckets {
			if j < len(hs.Counts) {
				hs.Counts[j] += d
			}
		}
	}
	return hs
}

// CounterRate returns the named counter's average per-second rate over
// the trailing window: windowed delta divided by the actual time span
// between the anchor sample and the latest one.
func (r *Recorder) CounterRate(name string, window time.Duration) (float64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, tracked := r.counterIdx[name]
	anchor, first, last, ok := r.anchorLocked(window)
	if !tracked || !ok {
		return 0, false
	}
	span := r.at(last).unixNs - r.at(anchor).unixNs
	if span <= 0 {
		return 0, false
	}
	return float64(r.counterDeltaLocked(c, first, last)) / (float64(span) / 1e9), true
}

// LastValue returns the latest sampled value of any metric: a counter's
// absolute count, a gauge's value, or a histogram's observation count —
// the scalar the SLO threshold conditions compare. ok is false before
// the first sample or for unknown names.
func (r *Recorder) LastValue(name string) (float64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seq == 0 {
		return 0, false
	}
	if c, ok := r.counterIdx[name]; ok {
		return float64(r.counterPrev[c]), true
	}
	if g, ok := r.gaugeIdx[name]; ok {
		return r.gaugeLast[g], true
	}
	if h, ok := r.histIdx[name]; ok {
		return float64(r.histCols[h].prevCount), true
	}
	return 0, false
}

// CounterWindow is one counter's trailing-window summary.
type CounterWindow struct {
	Name       string  `json:"name"`
	Value      int64   `json:"value"` // absolute at the latest sample
	Delta      int64   `json:"delta"`
	RatePerSec float64 `json:"rate_per_sec"`
}

// GaugeWindowSummary is one gauge's trailing-window summary.
type GaugeWindowSummary struct {
	Name string  `json:"name"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	Last float64 `json:"last"`
}

// HistWindowSummary is one histogram's trailing-window summary.
type HistWindowSummary struct {
	Name  string  `json:"name"`
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Summary is the windowed view of every tracked series — the
// /v1/metrics/history response body. Slices are sorted by name;
// series with no movement in the window are elided.
type Summary struct {
	FromUnixNs int64                `json:"from_unix_ns"`
	ToUnixNs   int64                `json:"to_unix_ns"`
	Samples    int                  `json:"samples"`
	Counters   []CounterWindow      `json:"counters,omitempty"`
	Gauges     []GaugeWindowSummary `json:"gauges,omitempty"`
	Histograms []HistWindowSummary  `json:"histograms,omitempty"`
}

// History summarizes every tracked series over the trailing window. The
// second return is false when fewer than two samples exist.
func (r *Recorder) History(window time.Duration) (Summary, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	anchor, first, last, ok := r.anchorLocked(window)
	if !ok {
		return Summary{}, false
	}
	var sum Summary
	sum.FromUnixNs = r.at(anchor).unixNs
	sum.ToUnixNs = r.at(last).unixNs
	sum.Samples = last - first + 1
	span := float64(sum.ToUnixNs-sum.FromUnixNs) / 1e9

	for c, name := range r.counterNames {
		d := r.counterDeltaLocked(c, first, last)
		if d == 0 {
			continue
		}
		cw := CounterWindow{Name: name, Value: r.counterPrev[c], Delta: d}
		if span > 0 {
			cw.RatePerSec = float64(d) / span
		}
		sum.Counters = append(sum.Counters, cw)
	}
	for g, name := range r.gaugeNames {
		gw, seen := r.gaugeWindowLocked(g, anchor, last)
		if !seen || (gw.Min == 0 && gw.Max == 0) {
			continue
		}
		gw.Name = name
		sum.Gauges = append(sum.Gauges, gw)
	}
	for h, name := range r.histNames {
		hs := r.histWindowLocked(h, first, last)
		if hs.Count <= 0 {
			continue
		}
		sum.Histograms = append(sum.Histograms, HistWindowSummary{
			Name:  name,
			Count: hs.Count,
			P50:   hs.Quantile(0.50),
			P95:   hs.Quantile(0.95),
			P99:   hs.Quantile(0.99),
		})
	}
	sort.Slice(sum.Counters, func(i, j int) bool { return sum.Counters[i].Name < sum.Counters[j].Name })
	sort.Slice(sum.Gauges, func(i, j int) bool { return sum.Gauges[i].Name < sum.Gauges[j].Name })
	sort.Slice(sum.Histograms, func(i, j int) bool { return sum.Histograms[i].Name < sum.Histograms[j].Name })
	return sum, true
}
