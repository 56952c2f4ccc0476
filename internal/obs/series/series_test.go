package series

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"opendwarfs/internal/obs"
)

// fakeClock steps a fixed interval per call — the deterministic stand-in
// for Options.Clock.
type fakeClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

func newFakeClock(step time.Duration) *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0), step: step}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(c.step)
	return c.t
}

func testRecorder(reg *obs.Registry, capacity int) (*Recorder, *fakeClock) {
	clk := newFakeClock(time.Second)
	return New(reg, Options{Capacity: capacity, Interval: time.Second, Clock: clk.Now}), clk
}

// TestSamplerDeterminism drives two identical registries through two
// recorders with identical fake clocks and asserts byte-identical
// sample streams — the property that makes CI replays reproducible.
func TestSamplerDeterminism(t *testing.T) {
	run := func() []Point {
		reg := obs.NewRegistry()
		c := reg.Counter("work_total")
		g := reg.Gauge("depth")
		h := reg.Histogram("lat_ns", []float64{10, 100})
		rec, _ := testRecorder(reg, 16)
		var pts []Point
		for i := 0; i < 5; i++ {
			c.Add(int64(i * 3))
			g.Set(float64(10 - i))
			h.Observe(float64(i * 40))
			rec.Sample()
		}
		pts, resync := rec.Since(0)
		if resync {
			t.Fatal("unexpected resync from seq 0 with capacity 16")
		}
		return pts
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 5 {
		t.Fatalf("runs produced %d and %d points, want 5", len(a), len(b))
	}
	for i := range a {
		pa, pb := a[i], b[i]
		if pa.Seq != pb.Seq || pa.UnixNs != pb.UnixNs {
			t.Fatalf("point %d headers differ: %+v vs %+v", i, pa, pb)
		}
		for k, v := range pa.Counters {
			if pb.Counters[k] != v {
				t.Fatalf("point %d counter %s differs: %d vs %d", i, k, v, pb.Counters[k])
			}
		}
		for k, v := range pa.Gauges {
			if pb.Gauges[k] != v {
				t.Fatalf("point %d gauge %s differs", i, k)
			}
		}
	}
	// The deltas themselves are the increments applied before each sample.
	if a[0].Counters["work_total"] != 0 && len(a[0].Counters) != 0 {
		t.Fatalf("first sample counter delta = %v, want 0 elided", a[0].Counters)
	}
	if got := a[3].Counters["work_total"]; got != 9 {
		t.Fatalf("sample 4 delta = %d, want 9", got)
	}
}

// TestReconciliation is the package-level statement of the CI contract:
// an accumulator seeded with a snapshot Point and fed every subsequent
// delta Point equals the registry's counters exactly at each boundary.
func TestReconciliation(t *testing.T) {
	reg := obs.NewRegistry()
	c1 := reg.Counter("a_total")
	c2 := reg.Counter("b_total")
	h := reg.Histogram("h_ns", []float64{5, 50})
	rec, _ := testRecorder(reg, 64)

	c1.Add(7)
	h.Observe(3)
	rec.Sample()

	// Subscriber connects mid-stream: snapshot first.
	acc := map[string]int64{}
	snap := rec.SnapshotPoint()
	if !snap.Snapshot {
		t.Fatal("SnapshotPoint not marked Snapshot")
	}
	for k, v := range snap.Counters {
		acc[k] = v
	}
	hCount := snap.Hists["h_ns"].Count
	lastSeq := snap.Seq

	for i := 0; i < 10; i++ {
		c1.Add(int64(i))
		c2.Inc()
		h.Observe(float64(i * 10))
		rec.Sample()
		pts, resync := rec.Since(lastSeq)
		if resync {
			t.Fatal("resync inside capacity")
		}
		for _, p := range pts {
			for k, v := range p.Counters {
				acc[k] += v
			}
			if wh, ok := p.Hists["h_ns"]; ok {
				hCount += wh.Count
			}
			lastSeq = p.Seq
		}
		if acc["a_total"] != c1.Value() || acc["b_total"] != c2.Value() {
			t.Fatalf("tick %d: accumulated %v, registry a=%d b=%d",
				i, acc, c1.Value(), c2.Value())
		}
		if hCount != h.Count() {
			t.Fatalf("tick %d: accumulated hist count %d, registry %d", i, hCount, h.Count())
		}
	}
}

// TestSinceResume covers the ring-wrap resume semantics Last-Event-ID
// relies on: replay within the ring, forced resync beyond it.
func TestSinceResume(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("n_total")
	rec, _ := testRecorder(reg, 4)
	for i := 0; i < 10; i++ {
		c.Inc()
		rec.Sample()
	}
	// Ring holds seqs 7..10.
	if pts, resync := rec.Since(8); resync || len(pts) != 2 || pts[0].Seq != 9 || pts[1].Seq != 10 {
		t.Fatalf("Since(8) = %d pts resync=%v", len(pts), resync)
	}
	if pts, resync := rec.Since(10); resync || pts != nil {
		t.Fatalf("Since(10) = %v resync=%v, want nil,false", pts, resync)
	}
	// Seq 3 fell off the ring: caller must resync from a snapshot.
	if _, resync := rec.Since(3); !resync {
		t.Fatal("Since(3) did not demand resync after wrap")
	}
	// Boundary: afterSeq 6 means "next is 7", the oldest retained — replayable.
	if pts, resync := rec.Since(6); resync || len(pts) != 4 {
		t.Fatalf("Since(6) = %d pts resync=%v, want 4,false", len(pts), resync)
	}
	if s, retained, capacity := rec.Stats(); s != 10 || retained != 4 || capacity != 4 {
		t.Fatalf("Stats = %d/%d/%d", s, retained, capacity)
	}
}

// TestSinceAheadResyncs: a sequence number this recorder never issued —
// a resume id from an earlier recorder — demands a resync, not silence
// until the sequence catches up.
func TestSinceAheadResyncs(t *testing.T) {
	rec, _ := testRecorder(obs.NewRegistry(), 4)
	for i := 0; i < 3; i++ {
		rec.Sample()
	}
	if pts, resync := rec.Since(3); resync || pts != nil {
		t.Fatalf("Since(3) = %v resync=%v, want nil,false", pts, resync)
	}
	if pts, resync := rec.Since(3600); !resync || pts != nil {
		t.Fatalf("Since(3600) = %v resync=%v, want nil,true", pts, resync)
	}
}

// TestWindowedQueries pins the anchor semantics: deltas are summed
// strictly after the anchor sample, rates divide by the real span.
func TestWindowedQueries(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("req_total")
	g := reg.Gauge("inflight")
	h := reg.Histogram("lat_ns", []float64{1, 2, 5, 10})
	rec, _ := testRecorder(reg, 32)

	// Samples 1s apart; 5 per tick on the counter after a quiet first tick.
	rec.Sample() // baseline
	for i := 0; i < 6; i++ {
		c.Add(5)
		g.Set(float64(i))
		h.Observe(3)
		rec.Sample()
	}

	if rate, ok := rec.CounterRate("req_total", 3*time.Second); !ok || rate != 5 {
		t.Fatalf("CounterRate(3s) = %v,%v want 5", rate, ok)
	}
	if _, ok := rec.CounterRate("missing_total", time.Second); ok {
		t.Fatal("untracked counter reported ok")
	}
	if v, ok := rec.LastValue("req_total"); !ok || v != 30 {
		t.Fatalf("LastValue counter = %v,%v want 30", v, ok)
	}
	if v, ok := rec.LastValue("inflight"); !ok || v != 5 {
		t.Fatalf("LastValue gauge = %v,%v want 5", v, ok)
	}
	if v, ok := rec.LastValue("lat_ns"); !ok || v != 6 {
		t.Fatalf("LastValue hist = %v,%v want 6", v, ok)
	}

	sum, ok := rec.History(3 * time.Second)
	if !ok || sum.Samples != 3 {
		t.Fatalf("History samples = %d,%v want 3", sum.Samples, ok)
	}
	if len(sum.Counters) != 1 || sum.Counters[0].Name != "req_total" ||
		sum.Counters[0].Delta != 15 || sum.Counters[0].Value != 30 {
		t.Fatalf("History counters = %+v", sum.Counters)
	}
	if len(sum.Gauges) != 1 || sum.Gauges[0].Min != 2 || sum.Gauges[0].Max != 5 || sum.Gauges[0].Last != 5 {
		t.Fatalf("History gauges = %+v, want inflight 2/5/5", sum.Gauges)
	}
	if len(sum.Histograms) != 1 || sum.Histograms[0].Count != 3 {
		t.Fatalf("History histograms = %+v", sum.Histograms)
	}
	if p50 := sum.Histograms[0].P50; p50 < 2 || p50 > 5 {
		t.Fatalf("windowed p50 = %v outside (2,5]", p50)
	}
	// Window larger than history: everything after the first sample.
	if sum, _ := rec.History(time.Hour); len(sum.Counters) != 1 || sum.Counters[0].Delta != 30 {
		t.Fatalf("History(1h) counters = %+v, want req_total delta 30", sum.Counters)
	}
}

// TestHistoryGolden pins the /v1/metrics/history body: the SHA-256 of
// History's JSON over a 3 s and a 1 h window of a fake-clock sequence
// with a late-registered counter, a moving gauge, a gauge that stays 0
// (elided), a histogram observed only before the short window (elided
// from it) and a histogram that moves every tick. A mismatch means a
// windowed sum, a quantile or the elision rules changed.
func TestHistoryGolden(t *testing.T) {
	reg := obs.NewRegistry()
	work := reg.Counter("work_total")
	depth := reg.Gauge("depth")
	reg.Gauge("idle") // never set: stays 0
	early := reg.Histogram("early_ns", []float64{10, 100})
	lat := reg.Histogram("lat_ns", []float64{1, 2, 5, 10, 20})
	rec, _ := testRecorder(reg, 32)

	var late *obs.Counter
	for i := 0; i < 8; i++ {
		work.Add(int64(3 * i))
		depth.Set(float64(7 - 2*i))
		if i < 2 {
			early.Observe(float64(40 * (i + 1)))
		}
		lat.Observe(float64(i*i) / 2)
		if i == 3 {
			late = reg.Counter("late_total")
		}
		if late != nil {
			late.Add(int64(i))
		}
		rec.Sample()
	}

	for _, tc := range []struct {
		window time.Duration
		want   string
	}{
		{3 * time.Second, "4da80a16a69f66b4f989b6ba4737aaa6709446b08a872770a4051d13577b63ce"},
		{time.Hour, "1a4bc0b4a26680fc9d2082f23945e20a83546bdc061ac4b3f313903c1f75d6b8"},
	} {
		sum, ok := rec.History(tc.window)
		if !ok {
			t.Fatalf("History(%v) not ok", tc.window)
		}
		body, err := json.Marshal(sum)
		if err != nil {
			t.Fatal(err)
		}
		digest := sha256.Sum256(body)
		if got := hex.EncodeToString(digest[:]); got != tc.want {
			t.Errorf("History(%v) digest %s, want %s\n%s", tc.window, got, tc.want, body)
		}
	}
}

// TestLateRegisteredMetric: columns created after older ring samples
// read those samples as zero instead of misindexing.
func TestLateRegisteredMetric(t *testing.T) {
	reg := obs.NewRegistry()
	a := reg.Counter("a_total")
	rec, _ := testRecorder(reg, 16)
	a.Add(2)
	rec.Sample()
	rec.Sample()
	b := reg.Counter("b_total") // appears mid-stream
	b.Add(9)
	rec.Sample()
	// a_total moved only before the anchor sample, so History elides it.
	if sum, _ := rec.History(time.Hour); len(sum.Counters) != 1 || sum.Counters[0].Name != "b_total" || sum.Counters[0].Delta != 9 {
		t.Fatalf("History(1h) counters = %+v, want b_total delta 9", sum.Counters)
	}
	snap := rec.SnapshotPoint()
	if snap.Counters["a_total"] != 2 || snap.Counters["b_total"] != 9 {
		t.Fatalf("snapshot = %v", snap.Counters)
	}
}

// TestEmptyAndNil: queries before two samples refuse, nil registry is
// inert, the pre-sample snapshot is empty with Seq 0.
func TestEmptyAndNil(t *testing.T) {
	rec, _ := testRecorder(obs.NewRegistry(), 8)
	if _, ok := rec.History(time.Minute); ok {
		t.Fatal("History ok with zero samples")
	}
	if p := rec.SnapshotPoint(); p.Seq != 0 || !p.Snapshot {
		t.Fatalf("pre-sample snapshot = %+v", p)
	}
	if _, ok := rec.LastValue("anything"); ok {
		t.Fatal("LastValue ok before first sample")
	}

	nilRec, _ := testRecorder(nil, 8)
	nilRec.Sample()
	nilRec.Sample()
	if _, ok := nilRec.CounterRate("x", time.Minute); ok {
		t.Fatal("nil-registry recorder reported a counter")
	}
}

// TestNotify: the follower wakeup channel closes on each sample.
func TestNotify(t *testing.T) {
	rec, _ := testRecorder(obs.NewRegistry(), 8)
	ch := rec.Notify()
	select {
	case <-ch:
		t.Fatal("notify closed before any sample")
	default:
	}
	rec.Sample()
	select {
	case <-ch:
	default:
		t.Fatal("notify not closed by Sample")
	}
	if ch2 := rec.Notify(); ch2 == ch {
		t.Fatal("notify channel not replaced after close")
	}
}

// TestConcurrentAccess exercises samplers, writers and readers together
// under the race detector.
func TestConcurrentAccess(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("r_total")
	g := reg.Gauge("rg")
	h := reg.Histogram("rh_ns", []float64{1, 10, 100})
	rec, _ := testRecorder(reg, 32)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.Inc()
			g.Set(float64(i))
			h.Observe(float64(i % 150))
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rec.Sample()
				rec.History(5 * time.Second)
				rec.Since(0)
				rec.SnapshotPoint()
				rec.CounterRate("r_total", 3*time.Second)
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
}
