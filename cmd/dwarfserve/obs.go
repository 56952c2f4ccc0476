package main

// Server-side observability: a logging/metrics middleware around the mux,
// the Prometheus text endpoint, the /v1/status build-and-state report, and
// the opt-in pprof handlers. The server owns one obs.Registry: the HTTP
// middleware, the store (via Instrument), every job grid (via
// GridSpec.Metrics) and the job/SSE gauges all land in it, so GET /metrics
// is the single pane over the whole daemon.

import (
	"log"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"opendwarfs/internal/harness"
	"opendwarfs/internal/obs"
)

// statusWriter captures the response code (and, for error responses, a
// body prefix for the server log) on its way to the client. It implements
// http.Flusher unconditionally — the SSE handler type-asserts for it — by
// delegating to the underlying writer when it can flush.
type statusWriter struct {
	http.ResponseWriter
	code      int
	errPrefix []byte
}

// errPrefixCap bounds how much of an error body makes it into the log.
const errPrefixCap = 256

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	if w.code >= 400 && len(w.errPrefix) < errPrefixCap {
		w.errPrefix = append(w.errPrefix, b[:min(len(b), errPrefixCap-len(w.errPrefix))]...)
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// HTTP middleware metric names (obsnames-checked).
const (
	mHTTPRequestsTotal = "http_requests_total"
	mHTTPRequestNs     = "http_request_ns"
	lblRoute           = "route"
	lblCode            = "code"
)

// ServeHTTP is the middleware around the mux: every request — matched or
// not — is counted under http_requests_total{route,code} and timed into
// http_request_ns{route}, and 4xx/5xx responses are logged server-side
// with the start of their error body. The route label is the mux pattern
// (bounded cardinality), never the raw path.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w}
	s.mux.ServeHTTP(sw, r)
	route := r.Pattern
	if route == "" {
		route = "unmatched"
	}
	code := sw.code
	if code == 0 {
		code = http.StatusOK
	}
	s.metrics.Counter(obs.Name(mHTTPRequestsTotal,
		lblRoute, route, lblCode, strconv.Itoa(code))).Inc()
	s.metrics.Histogram(obs.Name(mHTTPRequestNs, lblRoute, route), nil).
		Observe(float64(time.Since(start)))
	if code >= 400 {
		log.Printf("dwarfserve: %s %s -> %d %s", r.Method, r.URL.Path, code, sw.errPrefix)
	}
}

// handleMetrics renders the registry in Prometheus text exposition format.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.metrics.WritePrometheus(w); err != nil {
		log.Printf("dwarfserve: write /metrics: %v", err)
	}
}

// buildVersion extracts (module version, go version, VCS revision) from
// the binary's embedded build info. Fields the build didn't stamp come
// back as "unknown" rather than empty, so /v1/status is always complete.
func buildVersion() (version, goVersion, revision string) {
	version, goVersion, revision = "unknown", runtime.Version(), "unknown"
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return
	}
	if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		version = bi.Main.Version
	}
	for _, kv := range bi.Settings {
		if kv.Key == "vcs.revision" {
			revision = kv.Value
		}
	}
	return
}

// handleStatus is the introspection endpoint: build identity, uptime, the
// store snapshot counters that used to live in /healthz, and the job and
// SSE-subscriber population.
func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	cells := s.cells()

	s.jobMu.Lock()
	jobs := len(s.jobs)
	byState := map[string]int{}
	for _, j := range s.jobs {
		j.mu.Lock()
		byState[string(j.state)]++
		j.mu.Unlock()
	}
	s.jobMu.Unlock()

	version, goVersion, revision := buildVersion()
	// Health rollup: "ok" unless an alert rule is firing. The firing rule
	// names ride along so a dashboard needn't join against /v1/alerts.
	firing := s.alerts.Firing()
	health := "ok"
	if len(firing) > 0 {
		health = "degraded"
	}
	resp := map[string]any{
		"status":          "ok",
		"health":          health,
		"alerts_firing":   len(firing),
		"version":         version,
		"go_version":      goVersion,
		"vcs_revision":    revision,
		"uptime_ms":       float64(time.Since(s.started)) / 1e6,
		"cells":           cells,
		"segments":        s.st.Segments(),
		"schema":          harness.StoreSchemaVersion,
		"jobs":            jobs,
		"jobs_by_state":   byState,
		"jobs_running":    byState[string(jobRunning)],
		"sse_subscribers": int(s.metrics.Gauge(mSSESubscribers).Value()),
	}
	if len(firing) > 0 {
		resp["alerts"] = firing
	}
	if quar := s.quarantinedDevices(); len(quar) > 0 {
		resp["quarantined"] = quar
	}
	writeJSON(w, http.StatusOK, resp)
}

// enablePprof mounts net/http/pprof's handlers on the server mux. Off by
// default (profiles leak heap contents and symbol names); the -pprof flag
// opts in.
func (s *server) enablePprof() {
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}
