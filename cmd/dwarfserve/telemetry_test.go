package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"opendwarfs/internal/obs"
	"opendwarfs/internal/obs/series"
	"opendwarfs/internal/obs/slo"
)

// fakeClock steps one interval per call, giving the server sampler a
// deterministic time base.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(time.Second)
	return c.t
}

// fakeTelemetry swaps the server's recorder + engine for fake-clocked
// ones; tests then drive srv.sampleTick by hand.
func fakeTelemetry(t *testing.T, srv *server, capacity int, rules []slo.Rule) *fakeClock {
	t.Helper()
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	if err := srv.initTelemetry(series.Options{
		Capacity: capacity, Interval: time.Second, Clock: clk.Now,
	}, rules); err != nil {
		t.Fatal(err)
	}
	return clk
}

// promCounters parses counter values out of Prometheus text exposition —
// the scrape side of the reconciliation check.
func promCounters(t *testing.T, text string) map[string]int64 {
	t.Helper()
	counters := map[string]int64{}
	typ := map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			if f := strings.Fields(rest); len(f) == 2 {
				typ[f[0]] = f[1]
			}
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name, val := line[:sp], line[sp+1:]
		base := name
		if b := strings.IndexByte(name, '{'); b >= 0 {
			base = name[:b]
		}
		if typ[base] != "counter" {
			continue
		}
		n, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("unparseable counter line %q: %v", line, err)
		}
		counters[name] = int64(n)
	}
	return counters
}

// streamClient is a raw SSE reader over /v1/metrics/stream that
// accumulates the snapshot+delta protocol the way dwarftop does.
type streamClient struct {
	resp    *http.Response
	scanner *bufio.Scanner
	acc     map[string]int64 // reconciled absolute counter values
	lastSeq uint64
}

func dialStream(t *testing.T, base, lastEventID string) *streamClient {
	t.Helper()
	req, err := http.NewRequest("GET", base+"/v1/metrics/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	return &streamClient{resp: resp, scanner: bufio.NewScanner(resp.Body), acc: map[string]int64{}}
}

// readFrames consumes n event frames, folding each into the
// accumulator: snapshots reset it, deltas add. Returns the event names.
func (c *streamClient) readFrames(t *testing.T, n int) []string {
	t.Helper()
	var kinds []string
	event := ""
	for len(kinds) < n && c.scanner.Scan() {
		line := c.scanner.Text()
		if rest, ok := strings.CutPrefix(line, "event: "); ok {
			event = rest
			continue
		}
		rest, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		var p series.Point
		if err := json.Unmarshal([]byte(rest), &p); err != nil {
			t.Fatalf("bad stream frame %q: %v", rest, err)
		}
		if p.Snapshot {
			c.acc = map[string]int64{}
			for k, v := range p.Counters {
				c.acc[k] = v
			}
		} else {
			for k, v := range p.Counters {
				c.acc[k] += v
			}
		}
		c.lastSeq = p.Seq
		kinds = append(kinds, event)
	}
	if len(kinds) < n {
		t.Fatalf("stream ended after %d of %d frames (err %v)", len(kinds), n, c.scanner.Err())
	}
	return kinds
}

// assertReconciled compares the accumulator with a /metrics scrape taken
// at the same sample boundary: every scraped counter must match the
// accumulated value exactly (int64 equality, no tolerance).
func (c *streamClient) assertReconciled(t *testing.T, scrape map[string]int64) {
	t.Helper()
	for name, want := range scrape {
		if got := c.acc[name]; got != want {
			t.Errorf("counter %s: accumulated %d, scraped %d", name, got, want)
		}
	}
	for name, got := range c.acc {
		if _, ok := scrape[name]; !ok && got != 0 {
			t.Errorf("accumulated counter %s=%d missing from scrape", name, got)
		}
	}
}

// waitStreamCounted blocks until the middleware has counted n finished
// /v1/metrics/stream requests. A closed client body unwinds the server
// handler asynchronously, and the request counter only bumps when it
// does — the reconciliation tests must not take their settling sample
// before that, or the final scrape would be one request ahead of the
// last sample boundary.
func waitStreamCounted(t *testing.T, srv *server, n int64) {
	t.Helper()
	name := obs.Name("http_requests_total", "route", "GET /v1/metrics/stream", "code", "200")
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if srv.metrics.CounterValue(name) >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("stream request %d never counted (counter %s at %d)", n, name, srv.metrics.CounterValue(name))
}

// TestMetricsStreamReconciliation is the acceptance criterion in full:
// a streaming client's accumulator — seeded by the snapshot frame, fed
// delta frames, dropped mid-stream and resumed with Last-Event-ID —
// reproduces the final GET /metrics counter values exactly, across a
// chaos job that exercises retries, failures and quarantine.
func TestMetricsStreamReconciliation(t *testing.T) {
	srv, _ := newTestServer(t)
	srv.keepAlive = 20 * time.Millisecond
	fakeTelemetry(t, srv, 64, defaultAlertRules())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Take a baseline sample so the snapshot has state, then subscribe.
	srv.sampleTick()
	c := dialStream(t, ts.URL, "")
	if kinds := c.readFrames(t, 1); kinds[0] != "snapshot" {
		t.Fatalf("first frame %q, want snapshot", kinds[0])
	}

	// A chaos job churns the registry: store hits, failures, retries,
	// a quarantine. Sample after it settles; the delta frame arrives live.
	id := postJob(t, srv,
		`{"benchmarks":["crc","fft"],"sizes":["tiny"],"devices":["i7-6700k","k20m"],"samples":6,`+
			`"retries":2,"chaos":{"seed":11,"drop":["k20m"]}}`,
		http.StatusAccepted)
	waitJob(t, srv, id)
	srv.sampleTick()
	if kinds := c.readFrames(t, 1); kinds[0] != "sample" {
		t.Fatalf("delta frame %q, want sample", kinds[0])
	}
	c.assertReconciled(t, promCounters(t, getRaw(t, srv, "/metrics")))

	// Mid-stream drop. Two samples land while nobody is connected.
	c.resp.Body.Close()
	waitStreamCounted(t, srv, 1)
	resumeFrom := c.lastSeq
	id = postJob(t, srv,
		`{"benchmarks":["crc"],"sizes":["tiny"],"devices":["i7-6700k"],"samples":6}`,
		http.StatusAccepted)
	waitJob(t, srv, id)
	srv.sampleTick()
	srv.sampleTick()

	// Resume with Last-Event-ID: the missed deltas replay from the ring
	// (no snapshot — the ring still holds them) and reconcile exactly.
	c2 := dialStream(t, ts.URL, strconv.FormatUint(resumeFrom, 10))
	c2.acc = c.acc // carry the accumulator across the reconnect
	if kinds := c2.readFrames(t, 2); kinds[0] != "sample" || kinds[1] != "sample" {
		t.Fatalf("resumed frames %v, want two deltas", kinds)
	}
	c2.assertReconciled(t, promCounters(t, getRaw(t, srv, "/metrics")))
	c2.resp.Body.Close()
}

// TestMetricsStreamResync: a client reconnecting from beyond the ring's
// retention gets a fresh snapshot frame (not deltas) and still
// reconciles after resetting its accumulator.
func TestMetricsStreamResync(t *testing.T) {
	srv, _ := newTestServer(t)
	srv.keepAlive = 20 * time.Millisecond
	fakeTelemetry(t, srv, 4, defaultAlertRules())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	srv.sampleTick()
	c := dialStream(t, ts.URL, "")
	c.readFrames(t, 1)
	c.resp.Body.Close()
	waitStreamCounted(t, srv, 1)
	resumeFrom := c.lastSeq

	// Ten samples overflow the 4-slot ring; seq resumeFrom is long gone.
	for i := 0; i < 10; i++ {
		srv.metrics.Counter("jobs_created_total").Inc() // synthetic movement
		srv.sampleTick()
	}
	c2 := dialStream(t, ts.URL, strconv.FormatUint(resumeFrom, 10))
	c2.acc = c.acc
	if kinds := c2.readFrames(t, 1); kinds[0] != "snapshot" {
		t.Fatalf("resync frame %q, want snapshot", kinds[0])
	}
	c2.assertReconciled(t, promCounters(t, getRaw(t, srv, "/metrics")))
	c2.resp.Body.Close()

	// Malformed Last-Event-ID is a client error.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/metrics/stream", nil)
	req.Header.Set("Last-Event-ID", "not-a-number")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad Last-Event-ID status %d, want 400", resp.StatusCode)
	}
}

// TestMetricsStreamResumeAhead: a client resuming with an id ahead of the
// newest sample — one from an earlier server lifetime, as dwarftop sends
// after a restart — gets a snapshot frame at once, not keep-alives until
// the new sequence passes the old id, and reconciles from it.
func TestMetricsStreamResumeAhead(t *testing.T) {
	srv, _ := newTestServer(t)
	srv.keepAlive = 20 * time.Millisecond
	fakeTelemetry(t, srv, 64, defaultAlertRules())
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for i := 0; i < 3; i++ {
		srv.sampleTick()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/metrics/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", "3600")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	// The accumulator still holds the old server's counters.
	c := &streamClient{resp: resp, scanner: bufio.NewScanner(resp.Body), acc: map[string]int64{"jobs_created_total": 41}}
	if kinds := c.readFrames(t, 1); kinds[0] != "snapshot" {
		t.Fatalf("first frame %q after resuming ahead, want snapshot", kinds[0])
	}
	c.assertReconciled(t, promCounters(t, getRaw(t, srv, "/metrics")))
}

// TestSamplerFakeClockDeterminism: under an injected clock the sampler's
// timestamps are exactly the clock's values — wall time never leaks in.
func TestSamplerFakeClockDeterminism(t *testing.T) {
	srv, _ := newTestServer(t)
	fakeTelemetry(t, srv, 16, defaultAlertRules())
	base := int64(1_700_000_000) * int64(time.Second)
	for i := 1; i <= 5; i++ {
		srv.sampleTick()
		seq, ns := srv.series.LastSample()
		if seq != uint64(i) {
			t.Fatalf("tick %d: seq %d", i, seq)
		}
		if want := base + int64(i)*int64(time.Second); ns != want {
			t.Fatalf("tick %d: unix_ns %d, want %d (fake clock)", i, ns, want)
		}
	}
	// Re-running the identical schedule reproduces identical timestamps.
	srv2, _ := newTestServer(t)
	fakeTelemetry(t, srv2, 16, defaultAlertRules())
	for i := 1; i <= 5; i++ {
		srv2.sampleTick()
	}
	_, ns1 := srv.series.LastSample()
	_, ns2 := srv2.series.LastSample()
	if ns1 != ns2 {
		t.Fatalf("fake-clock runs diverged: %d vs %d", ns1, ns2)
	}
}

// TestHistoryEndpoint: windowed summaries over a few fake-clock samples.
func TestHistoryEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	fakeTelemetry(t, srv, 64, defaultAlertRules())

	srv.sampleTick()
	for i := 0; i < 3; i++ {
		srv.metrics.Counter("jobs_created_total").Add(2)
		srv.metrics.Histogram("harness_cell_ns", nil).Observe(1e6)
		srv.sampleTick()
	}

	body := get(t, srv, "/v1/metrics/history?window=10s", http.StatusOK)
	if body["populated"] != true {
		t.Fatalf("history not populated: %v", body)
	}
	sum := body["summary"].(map[string]any)
	var jc map[string]any
	for _, raw := range sum["counters"].([]any) {
		if c := raw.(map[string]any); c["name"] == "jobs_created_total" {
			jc = c
		}
	}
	if jc == nil || jc["delta"].(float64) != 6 || jc["value"].(float64) != 6 {
		t.Fatalf("jobs_created_total window %v, want delta 6", jc)
	}
	if jc["rate_per_sec"].(float64) != 2 {
		t.Fatalf("rate %v, want 2/s over 1s fake ticks", jc["rate_per_sec"])
	}
	foundHist := false
	for _, raw := range sum["histograms"].([]any) {
		h := raw.(map[string]any)
		if h["name"] == "harness_cell_ns" && h["count"].(float64) == 3 && h["p50"].(float64) > 0 {
			foundHist = true
		}
	}
	if !foundHist {
		t.Fatalf("harness_cell_ns percentiles missing: %v", sum["histograms"])
	}

	get(t, srv, "/v1/metrics/history?window=bogus", http.StatusBadRequest)
	get(t, srv, "/v1/metrics/history?window=-5s", http.StatusBadRequest)

	// A fresh recorder has no interval to summarize yet.
	fakeTelemetry(t, srv, 64, defaultAlertRules())
	if body := get(t, srv, "/v1/metrics/history", http.StatusOK); body["populated"] != false {
		t.Fatalf("empty history populated: %v", body)
	}
}

// TestAlertFireResolveOverHTTP drives the built-in failed_cells_burn
// rule through its lifecycle and watches /v1/alerts and the /v1/status
// health rollup follow it.
func TestAlertFireResolveOverHTTP(t *testing.T) {
	srv, _ := newTestServer(t)
	fakeTelemetry(t, srv, 128, defaultAlertRules())

	srv.sampleTick()
	srv.sampleTick()
	status := get(t, srv, "/v1/status", http.StatusOK)
	if status["health"] != "ok" || status["alerts_firing"].(float64) != 0 {
		t.Fatalf("quiet status %v", status)
	}

	// Burn failures well past 0.5/s.
	for i := 0; i < 4; i++ {
		srv.metrics.Counter("harness_failed_cells_total").Add(3)
		srv.sampleTick()
	}
	alerts := get(t, srv, "/v1/alerts", http.StatusOK)
	firing := alerts["firing"].([]any)
	if len(firing) != 1 || firing[0] != ruleFailedCellsBurn {
		t.Fatalf("firing %v, want [%s]", firing, ruleFailedCellsBurn)
	}
	if v := srv.metrics.Gauge(mAlertsFiring).Value(); v != 1 {
		t.Fatalf("alerts_firing gauge %v, want 1", v)
	}
	status = get(t, srv, "/v1/status", http.StatusOK)
	if status["health"] != "degraded" || status["alerts_firing"].(float64) != 1 {
		t.Fatalf("burning status %v", status)
	}
	names := status["alerts"].([]any)
	if len(names) != 1 || names[0] != ruleFailedCellsBurn {
		t.Fatalf("status alerts %v", names)
	}

	// 40 quiet seconds clear the 30s burn window: resolved, healthy.
	for i := 0; i < 40; i++ {
		srv.sampleTick()
	}
	alerts = get(t, srv, "/v1/alerts", http.StatusOK)
	if n := len(alerts["firing"].([]any)); n != 0 {
		t.Fatalf("still firing after quiesce: %v", alerts["firing"])
	}
	var burn map[string]any
	for _, raw := range alerts["alerts"].([]any) {
		a := raw.(map[string]any)
		if a["rule"].(map[string]any)["name"] == ruleFailedCellsBurn {
			burn = a
		}
	}
	if burn["state"] != string(slo.StateResolved) {
		t.Fatalf("burn rule state %v, want resolved", burn["state"])
	}
	status = get(t, srv, "/v1/status", http.StatusOK)
	if status["health"] != "ok" {
		t.Fatalf("post-resolve status %v", status)
	}
	if v := srv.metrics.Gauge(mAlertsFiring).Value(); v != 0 {
		t.Fatalf("alerts_firing gauge %v after resolve", v)
	}
}

// TestServeJobTraceWellFormed: with tracing on, completed AND cancelled
// jobs close their serve.job spans, and the exported Chrome trace is
// well-formed JSON containing them with the harness spans beneath.
func TestServeJobTraceWellFormed(t *testing.T) {
	srv, _ := newTestServer(t)
	srv.tracer = obs.NewTracer()

	// One job to completion.
	id := postJob(t, srv, `{"benchmarks":["crc"],"sizes":["tiny"],"devices":["i7-6700k"],"samples":6}`,
		http.StatusAccepted)
	waitJob(t, srv, id)

	// One job cancelled mid-flight (a wide selection, cancelled at once).
	id = postJob(t, srv, `{"benchmarks":["crc","fft"],"sizes":["tiny","small"],"devices":["i7-6700k","gtx1080"],"samples":6}`,
		http.StatusAccepted)
	req := httptest.NewRequest("DELETE", "/v1/jobs/"+id, nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("cancel status %d", rec.Code)
	}
	waitJob(t, srv, id)

	if open := srv.tracer.OpenSpans(); open != 0 {
		t.Fatalf("%d spans still open after both jobs settled", open)
	}
	var buf bytes.Buffer
	if err := srv.tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Dur  float64           `json:"dur"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var jobSpans int
	states := map[string]bool{}
	harnessSpans := 0
	for _, ev := range doc.TraceEvents {
		switch ev.Name {
		case "serve.job":
			jobSpans++
			states[ev.Args["state"]] = true
			if ev.Dur < 0 {
				t.Fatalf("negative span duration: %+v", ev)
			}
		case "harness.grid", "harness.cell", "harness.measure":
			harnessSpans++
		}
	}
	if jobSpans != 2 {
		t.Fatalf("%d serve.job spans, want 2", jobSpans)
	}
	if !states[string(jobDone)] || !states[string(jobCancelled)] {
		t.Fatalf("serve.job states %v, want done and cancelled", states)
	}
	if harnessSpans == 0 {
		t.Fatal("no harness spans nested under the jobs")
	}
}
