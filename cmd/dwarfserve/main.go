// Command dwarfserve serves a persistent result store over HTTP — the
// query and execution side of the dwarfsweep/dwarfbench/dwarfpredict
// -store pipeline. It loads every cell of the store into an in-memory
// snapshot at startup and answers JSON queries:
//
//	GET    /healthz                               liveness
//	GET    /v1/status                             build info, uptime, cell/segment/job counts
//	GET    /metrics                               Prometheus text exposition of the server registry
//	GET    /v1/cells?bench=fft&size=tiny&device=gtx1080   filtered cell summaries
//	GET    /v1/grid                               every cell + the grid axes
//	GET    /v1/predict?bench=fft&size=tiny&device=gtx1080  runtime prediction
//	POST   /v1/schedule                           prediction-guided workload placement
//
// Beyond queries, dwarfserve executes sweeps asynchronously: a job measures
// a benchmark × size × device selection into the store (cells already
// present are store hits), streams per-cell progress, and on completion the
// server reloads its index so /v1/grid and /v1/predict see the new cells —
// identical, byte for byte, to a synchronous dwarfsweep of the same
// selection:
//
//	POST   /v1/jobs            submit a sweep {"benchmarks":[...],"sizes":[...],"devices":[...]}
//	GET    /v1/jobs            list jobs
//	GET    /v1/jobs/{id}        job status + progress counters
//	GET    /v1/jobs/{id}/events  per-cell event stream (Server-Sent Events)
//	DELETE /v1/jobs/{id}        cancel; completed cells stay persisted
//
// /v1/predict and /v1/schedule answer from one internal/sched cost
// provider per store generation, which indexes the stored cells by
// benchmark × size × device. Its time forest trains on the first request
// that predicts a cell, its energy forest on the first schedule that
// places a task on an unmeasured cell (deterministic in -seed, retrained
// after a job adds cells), and /v1/predict answers for any catalogue
// device — including devices the benchmark never ran on, the paper's §7
// scenario.
//
// Every request passes a metrics/logging middleware (route-labelled
// request counters and latency histograms; 4xx/5xx logged server-side),
// job grids derive harness counters, and the store counts its appends and
// compactions — all into one registry served at GET /metrics. -pprof
// additionally mounts net/http/pprof under /debug/pprof/.
//
// SIGINT/SIGTERM shut down gracefully: running jobs are cancelled through
// their contexts (completed cells are already flushed to the store — the
// write path persists each cell before announcing it), event streams end
// with their terminal grid_done, and in-flight HTTP requests drain through
// http.Server.Shutdown before the store is closed.
//
//	dwarfsweep -sizes tiny -store results/
//	dwarfserve -store results/ -addr :7077
package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"opendwarfs/internal/cli"
	"opendwarfs/internal/harness"
	"opendwarfs/internal/obs"
	"opendwarfs/internal/obs/series"
	"opendwarfs/internal/obs/slo"
	"opendwarfs/internal/predict"
	"opendwarfs/internal/sched"
	"opendwarfs/internal/sim"
	"opendwarfs/internal/store"
)

func main() {
	def := predict.DefaultConfig()
	var (
		storeDir    = flag.String("store", "", "persistent result store directory (required)")
		compactOver = flag.Int64("compact-over", 0, "compact the store after a job reload whenever its on-disk footprint exceeds this many bytes (0 = never)")
		addr        = flag.String("addr", ":7077", "listen address")
		trees       = flag.Int("trees", def.Trees, "forest size of the cost model behind /v1/predict and /v1/schedule")
		depth       = flag.Int("depth", def.MaxDepth, "maximum tree depth of the cost model's forests")
		seed        = flag.Int64("seed", def.Seed, "training seed of the cost model's forests")
		drain       = flag.Duration("drain", 15*time.Second, "graceful-shutdown deadline for in-flight HTTP requests")
		pprofOn     = flag.Bool("pprof", false, "serve net/http/pprof profiles under /debug/pprof/")
		sampleEvery = flag.Duration("sample-interval", time.Second, "telemetry sampling period for /v1/metrics/history and /v1/metrics/stream")
		seriesCap   = flag.Int("series-capacity", 600, "telemetry ring capacity in samples (history window = capacity × interval)")
		alertsPath  = flag.String("alerts", "", "JSON alert-rule file for /v1/alerts (default: built-in rules)")
		tracePath   = flag.String("trace", "", "write a Chrome trace-event file of the server's job spans on shutdown (open in Perfetto or chrome://tracing)")
	)
	flag.Parse()
	if *storeDir == "" {
		fatal(errors.New("missing -store"))
	}

	// One store handle serves everything: the initial snapshot load, every
	// job and every reload share one decoded measurement per cell, and its
	// slotcache_* counters are complete from process start.
	start := time.Now()
	st, err := store.Open(*storeDir)
	if err != nil {
		fatal(err)
	}
	openDur := time.Since(start)
	cfg := def
	cfg.Trees, cfg.MaxDepth, cfg.Seed = *trees, *depth, *seed

	start = time.Now()
	srv, err := newServer(st, cfg)
	if err != nil {
		fatal(err)
	}
	snapDur := time.Since(start)
	srv.compactOver = *compactOver
	if *pprofOn {
		srv.enablePprof()
	}
	rules := defaultAlertRules()
	if *alertsPath != "" {
		f, err := os.Open(*alertsPath)
		if err != nil {
			fatal(err)
		}
		rules, err = slo.LoadRules(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}
	if err := srv.initTelemetry(series.Options{Capacity: *seriesCap, Interval: *sampleEvery}, rules); err != nil {
		fatal(err)
	}
	if *tracePath != "" {
		srv.tracer = obs.NewTracer()
	}
	httpSrv := newHTTPServer(*addr, srv)
	// Bind before logging, so a busy port fails here and the log names the
	// address actually bound (the real port of -addr host:0).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	samplerCtx, samplerStop := context.WithCancel(context.Background())
	defer samplerStop()
	go srv.runSampler(samplerCtx)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	log.Printf("dwarfserve: %d cells from %s (%d segment files; open %v, snapshot %v), listening on %s",
		srv.cells(), *storeDir, st.Segments(), openDur.Round(time.Microsecond), snapDur.Round(time.Microsecond), ln.Addr())

	select {
	case err := <-serveErr:
		fatal(err)
	case <-ctx.Done():
	}

	// Graceful shutdown: cancel running jobs first — their workers stop
	// claiming cells, in-flight measurements abort, and every completed
	// cell is already in the store — then drain HTTP connections (the
	// cancelled jobs' SSE streams end with grid_done, so they drain too),
	// and finally close the store.
	log.Printf("dwarfserve: shutting down: cancelling %d running job(s), draining connections", srv.runningJobs())
	srv.shutdownJobs()
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("dwarfserve: drain: %v", err)
	}
	samplerStop()
	if err := st.Close(); err != nil {
		fatal(err)
	}
	// The trace is exported last, after every job span (including
	// cancelled ones) has ended — shutdownJobs waited for their terminal
	// events — so the file is always well-formed.
	if srv.tracer != nil {
		if err := cli.WriteFile(*tracePath, srv.tracer.WriteChromeTrace); err != nil {
			fatal(err)
		}
		log.Printf("dwarfserve: Chrome trace (%d spans) written to %s", srv.tracer.Spans(), *tracePath)
	}
	log.Printf("dwarfserve: store closed, bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dwarfserve:", err)
	os.Exit(1)
}

// Connection and body bounds: what one client can make the daemon hold.
// There is no write timeout, because a job's SSE stream stays open for as
// long as the job runs.
const (
	// readHeaderTimeout is how long a client may take to send its
	// request headers.
	readHeaderTimeout = 10 * time.Second
	// idleTimeout closes a keep-alive connection that sent no request.
	idleTimeout = 2 * time.Minute
	// maxBodyBytes caps a POST body; a larger one gets a 413.
	maxBodyBytes = 1 << 20
	// maxJobSamples caps a job's samples per cell (20× the paper's 50):
	// Measure holds three float64 slices of that length per cell.
	maxJobSamples = 1000
	// maxJobAttempts caps a job's per-cell attempts. Every failed attempt
	// appends a cell_retry event to the job's log, so with it a log holds
	// at most cells × (attempts + 1) + devices + 1 events: 10,471 for the
	// full 615-cell grid.
	maxJobAttempts = 16
)

// newHTTPServer builds the daemon's listener-side server with the
// connection bounds above.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// bodyStatus is the status for a POST body that did not decode: 413 when
// it ran past maxBodyBytes (http.MaxBytesReader), 400 otherwise.
func bodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// server answers queries from a snapshot of the store. The snapshot is
// loaded at startup and reloaded whenever an async job finishes, so query
// handlers see new cells without a restart; sweeps run by other processes
// still become visible on restart only.
type server struct {
	st          *store.Store
	compactOver int64 // post-reload footprint bound in bytes; 0 = unbounded
	mux         *http.ServeMux
	cfg         predict.Config
	metrics     *obs.Registry // one registry for HTTP, store, jobs and gauges
	started     time.Time     // process start, for /v1/status uptime

	// snap is the current store generation; setGrid replaces it whole,
	// and each handler loads it once.
	snap atomic.Pointer[snapshot]

	// Async sweep jobs; see jobs.go.
	jobMu      sync.Mutex
	jobs       map[string]*job
	jobOrder   []string // creation order, for listing
	jobSeq     int
	jobsCtx    context.Context // parent of every job context
	jobsCancel context.CancelFunc
	jobWG      sync.WaitGroup
	draining   bool // set at shutdown: new jobs are rejected

	// keepAlive is the SSE comment-frame interval (tests shrink it).
	keepAlive time.Duration

	// Live telemetry (see telemetry.go): the ring-buffer recorder over
	// this server's registry and the alert engine evaluated on each
	// sample tick. Assigned by initTelemetry before serving starts,
	// never re-assigned after.
	series *series.Recorder
	alerts *slo.Engine

	// tracer records server-lifetime spans (jobs and their harness
	// children) when -trace is set; nil otherwise.
	tracer *obs.Tracer

	// Devices quarantined by job executions (device → reason). /v1/schedule
	// keeps them out of the default fleet and rejects explicit requests for
	// them; /v1/status lists them.
	quarMu      sync.Mutex
	quarantined map[string]string
}

func newServer(st *store.Store, cfg predict.Config) (*server, error) {
	s := &server{
		st:          st,
		cfg:         cfg,
		metrics:     obs.NewRegistry(),
		started:     time.Now(),
		jobs:        make(map[string]*job),
		keepAlive:   15 * time.Second,
		quarantined: make(map[string]string),
	}
	// Instrument before the first read so the startup snapshot's slot-cache
	// misses (and the store counters) are visible on /metrics.
	st.Instrument(s.metrics)
	if err := s.initTelemetry(series.Options{}, defaultAlertRules()); err != nil {
		return nil, err
	}
	s.jobsCtx, s.jobsCancel = context.WithCancel(context.Background())
	if err := s.reloadFromStore(); err != nil {
		return nil, err
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/status", s.handleStatus)
	s.mux.HandleFunc("GET /v1/metrics/history", s.handleMetricsHistory)
	s.mux.HandleFunc("GET /v1/metrics/stream", s.handleMetricsStream)
	s.mux.HandleFunc("GET /v1/alerts", s.handleAlerts)
	s.mux.HandleFunc("GET /v1/cells", s.handleCells)
	s.mux.HandleFunc("GET /v1/grid", s.handleGrid)
	s.mux.HandleFunc("GET /v1/predict", s.handlePredict)
	s.mux.HandleFunc("POST /v1/schedule", s.handleSchedule)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobCreate)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	return s, nil
}

// cells reports the current snapshot's cell count.
func (s *server) cells() int { return s.snap.Load().grid.Cells() }

// snapshot is one store generation as the read routes see it: the grid
// and two values derived from it, each built at most once, by the first
// request that needs it. Nothing in a snapshot changes after setGrid
// publishes it; a request that loaded an older one finishes on it, and
// whatever it builds there is dropped with it.
type snapshot struct {
	grid *harness.Grid

	gridBody func() ([]byte, error)       // the /v1/grid response body
	costs    func() (*sched.Costs, error) // the /v1/predict and /v1/schedule cost provider
}

// setGrid publishes a fresh snapshot of grid. Its cost provider and its
// /v1/grid body are built lazily: the reload lies on every job's path to
// grid_done, so nothing is indexed, encoded or trained here.
func (s *server) setGrid(grid *harness.Grid) {
	sn := &snapshot{grid: grid}
	cfg := s.cfg
	sn.gridBody = sync.OnceValues(sn.encodeGrid)
	sn.costs = sync.OnceValues(func() (*sched.Costs, error) { return sched.NewCosts(grid, cfg) })
	s.snap.Store(sn)
}

// gridAxes returns the distinct benchmarks, sizes and devices of grid's
// cells, each in order of first appearance: store listing order, for a
// grid from the store.
func gridAxes(grid *harness.Grid) (benchmarks, sizes, devices []string) {
	seenB, seenS, seenD := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, m := range grid.Measurements {
		if !seenB[m.Benchmark] {
			seenB[m.Benchmark] = true
			benchmarks = append(benchmarks, m.Benchmark)
		}
		if !seenS[m.Size] {
			seenS[m.Size] = true
			sizes = append(sizes, m.Size)
		}
		if !seenD[m.Device.ID] {
			seenD[m.Device.ID] = true
			devices = append(devices, m.Device.ID)
		}
	}
	return benchmarks, sizes, devices
}

// encodeGrid renders the /v1/grid body: every cell's summary and the axes,
// the bytes writeJSON would write for them.
func (sn *snapshot) encodeGrid() ([]byte, error) {
	benchmarks, sizes, devices := gridAxes(sn.grid)
	cells := make([]cellSummary, 0, sn.grid.Cells())
	for _, m := range sn.grid.Measurements {
		cells = append(cells, summarize(m))
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(map[string]any{
		"benchmarks": benchmarks,
		"sizes":      sizes,
		"devices":    devices,
		"count":      len(cells),
		"cells":      cells,
	})
	return buf.Bytes(), err
}

// reloadFromStore rebuilds the snapshot from the store — called after a
// job lands new cells, so queries (and the CI byte-for-byte check) see
// exactly what a fresh GridFromStore would.
func (s *server) reloadFromStore() error {
	grid, err := harness.GridFromStore(s.st)
	if err != nil {
		return err
	}
	s.setGrid(grid)
	return nil
}

// maybeCompact enforces the -compact-over footprint bound after a job
// reload: when the store's footprint exceeds the bound, dead segment
// files are folded into a fresh snapshot. Compaction is best-effort — a
// failure is logged, never fatal, and the next reload tries again.
func (s *server) maybeCompact() {
	if s.compactOver <= 0 {
		return
	}
	compacted, err := s.st.CompactIfOver(s.compactOver)
	if err != nil {
		log.Printf("dwarfserve: compact-over: %v", err)
		return
	}
	if compacted {
		bytes, _ := s.st.DiskBytes()
		log.Printf("dwarfserve: store compacted under -compact-over=%d (now %d bytes, %d segment file(s))",
			s.compactOver, bytes, s.st.Segments())
	}
}

// ServeHTTP lives in obs.go: the request/metrics/logging middleware wraps
// the mux there.

// cellSummary is the wire form of one measured cell: the statistics every
// figure is built from, without the raw sample vectors.
type cellSummary struct {
	Benchmark        string  `json:"benchmark"`
	Size             string  `json:"size"`
	Device           string  `json:"device"`
	Class            string  `json:"class"`
	Functional       bool    `json:"functional"`
	Verified         bool    `json:"verified"`
	Samples          int     `json:"samples"`
	Iterations       int     `json:"iterations_per_sample"`
	FootprintBytes   int64   `json:"footprint_bytes"`
	MedianNs         float64 `json:"median_ns"`
	MeanNs           float64 `json:"mean_ns"`
	CV               float64 `json:"cv"`
	CI95LoNs         float64 `json:"ci95_lo_ns"`
	CI95HiNs         float64 `json:"ci95_hi_ns"`
	TransferMedianNs float64 `json:"transfer_median_ns"`
	EnergyMedianJ    float64 `json:"energy_median_j"`
}

func summarize(m *harness.Measurement) cellSummary {
	return cellSummary{
		Benchmark:        m.Benchmark,
		Size:             m.Size,
		Device:           m.Device.ID,
		Class:            m.Device.Class.String(),
		Functional:       m.Functional,
		Verified:         m.Verified,
		Samples:          len(m.KernelNs),
		Iterations:       m.Iterations,
		FootprintBytes:   m.FootprintBytes,
		MedianNs:         m.Kernel.Median,
		MeanNs:           m.Kernel.Mean,
		CV:               m.Kernel.CV,
		CI95LoNs:         m.Kernel.CI95Lo,
		CI95HiNs:         m.Kernel.CI95Hi,
		TransferMedianNs: m.Transfer.Median,
		EnergyMedianJ:    m.Energy.Median,
	}
}

// quarantineDevice records a device-down verdict from a job execution.
func (s *server) quarantineDevice(device, reason string) {
	s.quarMu.Lock()
	s.quarantined[device] = reason
	s.quarMu.Unlock()
}

// quarantinedDevices returns the quarantine registry's device IDs, sorted.
func (s *server) quarantinedDevices() []string {
	s.quarMu.Lock()
	defer s.quarMu.Unlock()
	out := make([]string, 0, len(s.quarantined))
	for d := range s.quarantined {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// handleHealth is pure liveness: the process is up and answering. Cell,
// segment, job and quarantine state live in /v1/status.
func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// defaultCellPageLimit bounds an unpaginated /v1/cells answer; clients
// wanting the rest follow next_cursor.
const defaultCellPageLimit = 500

// cellCursor is the keyset-pagination position of one cell: its
// (benchmark, size, device) triple, NUL-joined so that lexicographic
// comparison of cursors equals tuple comparison of cells — exactly the
// canonical order the snapshot is listed in. Keyset cursors survive
// snapshot reloads between pages: cells added behind the cursor are
// skipped, cells added ahead of it appear, and nothing is ever repeated.
func cellCursor(m *harness.Measurement) string {
	return m.Benchmark + "\x00" + m.Size + "\x00" + m.Device.ID
}

func encodeCursor(c string) string { return base64.RawURLEncoding.EncodeToString([]byte(c)) }

func decodeCursor(s string) (string, error) {
	b, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil || strings.Count(string(b), "\x00") != 2 {
		return "", fmt.Errorf("invalid cursor %q", s)
	}
	return string(b), nil
}

// handleCells answers filtered cell listings as a paginated envelope:
//
//	{"items": [...], "next_cursor": "...", "total": N}
//
// total counts every cell matching the filters; items holds at most limit=
// of them (default 500) starting after cursor=; next_cursor is the opaque
// position to resume from, empty on the last page.
func (s *server) handleCells(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	bench, size, device := q.Get("bench"), q.Get("size"), q.Get("device")
	var matched []*harness.Measurement
	for _, m := range s.snap.Load().grid.Measurements {
		if (bench == "" || m.Benchmark == bench) &&
			(size == "" || m.Size == size) &&
			(device == "" || m.Device.ID == device) {
			matched = append(matched, m)
		}
	}

	limit := defaultCellPageLimit
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid limit %q (want a positive integer)", v))
			return
		}
		limit = n
	}
	start := 0
	if cur := q.Get("cursor"); cur != "" {
		after, err := decodeCursor(cur)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		// The snapshot is in canonical (benchmark, size, device) order, so
		// the page resumes at the first cell strictly after the cursor.
		start = sort.Search(len(matched), func(i int) bool { return cellCursor(matched[i]) > after })
	}
	// Clamp before adding: start+limit overflows for a limit near MaxInt.
	end := start + min(limit, len(matched)-start)
	items := make([]cellSummary, 0, end-start)
	for _, m := range matched[start:end] {
		items = append(items, summarize(m))
	}
	next := ""
	if end < len(matched) {
		next = encodeCursor(cellCursor(matched[end-1]))
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"items":       items,
		"next_cursor": next,
		"total":       len(matched),
	})
}

// handleGrid writes the snapshot's body, encoded by the generation's first
// /v1/grid.
func (s *server) handleGrid(w http.ResponseWriter, r *http.Request) {
	body, err := s.snap.Load().gridBody()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	if _, err := w.Write(body); err != nil {
		log.Printf("dwarfserve: write /v1/grid: %v", err)
	}
}

func (s *server) handlePredict(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	bench, size, device := q.Get("bench"), q.Get("size"), q.Get("device")
	if bench == "" || size == "" || device == "" {
		writeError(w, http.StatusBadRequest, "want bench=, size= and device= query parameters")
		return
	}

	// One provider serves the whole request, so lookup and prediction
	// agree even if a job reloads mid-request. It fails only on an empty
	// store, which holds no row either.
	costs, err := s.snap.Load().costs()
	if err != nil || !costs.Profiled(bench, size) {
		writeError(w, http.StatusNotFound,
			fmt.Sprintf("no stored measurement of %s/%s on any device; sweep it into the store first", bench, size))
		return
	}

	// The device half of the feature vector comes from the stored cell
	// when this exact device was measured, otherwise from the catalogue —
	// which is what lets the daemon answer for devices the benchmark never
	// ran on.
	actual := costs.Cell(bench, size, device)
	var spec *sim.DeviceSpec
	if actual != nil {
		spec = actual.Device
	} else if spec, err = sim.Lookup(device); err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}

	predNs, err := costs.PredictNs(bench, size, spec)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	resp := map[string]any{
		"benchmark":      bench,
		"size":           size,
		"device":         device,
		"predicted_ns":   predNs,
		"measured":       actual != nil,
		"training_cells": costs.TrainingCells(),
	}
	if actual != nil {
		resp["actual_ns"] = actual.Kernel.Median
		resp["ape"] = 100 * math.Abs(predNs-actual.Kernel.Median) / actual.Kernel.Median
	}
	writeJSON(w, http.StatusOK, resp)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("dwarfserve: encode response: %v", err)
	}
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]any{"error": msg})
}
