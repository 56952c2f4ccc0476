package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"opendwarfs/internal/obs"
)

// getText fetches a non-JSON endpoint through the middleware.
func getText(t *testing.T, srv *server, url string, wantCode int) (string, http.Header) {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != wantCode {
		t.Fatalf("GET %s: status %d (body %s), want %d", url, rec.Code, rec.Body, wantCode)
	}
	return rec.Body.String(), rec.Result().Header
}

// The middleware counts and times every request by mux pattern — 2xx on
// their route, errors included, unmatched paths under their own label —
// and /metrics renders it all in Prometheus text format.
func TestMetricsEndpointAndMiddleware(t *testing.T) {
	srv, _ := newTestServer(t)

	get(t, srv, "/v1/status", http.StatusOK)
	get(t, srv, "/v1/predict?bench=fft", http.StatusBadRequest) // missing params
	getText(t, srv, "/nosuch", http.StatusNotFound)

	body, hdr := getText(t, srv, "/metrics", http.StatusOK)
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	for _, want := range []string{
		"# TYPE http_requests_total counter",
		`http_requests_total{code="200",route="GET /v1/status"} 1`,
		`http_requests_total{code="400",route="GET /v1/predict"} 1`,
		`http_requests_total{code="404",route="unmatched"} 1`,
		"# TYPE http_request_ns histogram",
		`http_request_ns_count{route="GET /v1/status"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}
	// Latency was recorded for the error route too.
	if n := srv.metrics.Histogram(obs.Name("http_request_ns", "route", "GET /v1/predict"), nil).Count(); n != 1 {
		t.Errorf("error route latency count = %d, want 1", n)
	}
}

// CI-facing satellite: after a chaos job, the server registry's harness
// and fault counters agree with the job's reported grid, the job gauges
// settle, and /metrics serves all of it.
func TestMetricsAgreeWithChaosJob(t *testing.T) {
	srv, _ := newTestServer(t)
	id := postJob(t, srv,
		`{"benchmarks":["crc","fft"],"sizes":["tiny"],"devices":["i7-6700k","k20m"],"samples":6,`+
			`"retries":3,"chaos":{"seed":7,"drop":["k20m"]}}`,
		http.StatusAccepted)
	status := waitJob(t, srv, id)

	reg := srv.metrics
	done := int64(status["done"].(float64))
	if got := reg.CounterValue("harness_cells_total"); got != done {
		t.Errorf("harness_cells_total = %d, want job done %d", got, done)
	}
	if got := reg.CounterValue("harness_store_hits_total"); got != int64(status["store_hits"].(float64)) {
		t.Errorf("harness_store_hits_total = %d, want %v", got, status["store_hits"])
	}
	if got := reg.CounterValue("harness_store_misses_total"); got != int64(status["store_misses"].(float64)) {
		t.Errorf("harness_store_misses_total = %d, want %v", got, status["store_misses"])
	}
	if got := reg.CounterValue("harness_failed_cells_total"); got != int64(status["failed"].(float64)) {
		t.Errorf("harness_failed_cells_total = %d, want %v", got, status["failed"])
	}
	if got := reg.CounterValue("harness_quarantines_total"); got != 1 {
		t.Errorf("harness_quarantines_total = %d, want 1", got)
	}
	if reg.CounterValue(obs.Name("faults_injected_total", "kind", "device_down")) == 0 {
		t.Error("faults_injected_total{kind=device_down} = 0 after a drop plan")
	}
	// Both rows were prepared by the sweep that filled the store, so the
	// k20m cells' rows are decoded from it: nothing is prepared, and the
	// store appends match the misses the job persisted.
	if got := reg.CounterValue("harness_prepares_total"); got != 0 {
		t.Errorf("harness_prepares_total = %d, want 0", got)
	}
	if got := reg.CounterValue("harness_prep_store_hits_total"); got != 2 {
		t.Errorf("harness_prep_store_hits_total = %d, want 2", got)
	}
	if got := reg.CounterValue("store_appends_total"); got != int64(status["store_misses"].(float64)) {
		t.Errorf("store_appends_total = %d, want %v", got, status["store_misses"])
	}
	// Job lifecycle metrics settled.
	if got := reg.Gauge("jobs_running").Value(); got != 0 {
		t.Errorf("jobs_running = %g after the job finished", got)
	}
	if got := reg.CounterValue("jobs_created_total"); got != 1 {
		t.Errorf("jobs_created_total = %d, want 1", got)
	}
	if got := reg.CounterValue(obs.Name("jobs_finished_total", "state", "done")); got != 1 {
		t.Errorf("jobs_finished_total{state=done} = %d, want 1", got)
	}

	body, _ := getText(t, srv, "/metrics", http.StatusOK)
	for _, want := range []string{
		"harness_cells_total", "faults_injected_total", "store_appends_total",
		`jobs_finished_total{state="done"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// /v1/status reflects the same population.
	st := get(t, srv, "/v1/status", http.StatusOK)
	if int(st["jobs"].(float64)) != 1 || int(st["jobs_running"].(float64)) != 0 {
		t.Fatalf("status jobs %v running %v, want 1/0", st["jobs"], st["jobs_running"])
	}
	byState := st["jobs_by_state"].(map[string]any)
	if int(byState["done"].(float64)) != 1 {
		t.Fatalf("jobs_by_state %v, want done:1", byState)
	}
}

// pprof stays off the mux until -pprof opts in.
func TestPprofOptIn(t *testing.T) {
	srv, _ := newTestServer(t)
	getText(t, srv, "/debug/pprof/", http.StatusNotFound)
	srv.enablePprof()
	body, _ := getText(t, srv, "/debug/pprof/", http.StatusOK)
	if !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index unexpected: %.120s", body)
	}
}
