package main

// serve_mixed: one dwarfserve lifetime over a copy of the fixture store,
// driven from this process by cfg.workers closed-loop clients, each on one
// keep-alive connection. Phase A rotates four read routes round-robin;
// phase B runs one sweep job per grid row on the held-out devices, then
// asks /v1/predict about the row, which retrains the forest. The routes are
// those the CI serving smoke test calls that answer from the served grid.
// No measured traffic mix exists, so each route gets an equal share and the
// end-to-end latency counts each route's median once.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"opendwarfs/internal/harness"
	"opendwarfs/internal/store"
)

// Phase A routes, in round-robin order; the names key the per-route
// metrics and the paths key the server's http_request_ns histogram.
var routes = []struct{ name, pattern string }{
	{"predict", "GET /v1/predict"},
	{"cells", "GET /v1/cells"},
	{"grid", "GET /v1/grid"},
	{"schedule", "POST /v1/schedule"},
}

const (
	// setupSpawns is how many times a run starts the server to time its
	// set-up; the last one serves both phases. With three, the median
	// spread by 9.7% over ten seeds.
	setupSpawns = 5
	// generatedQueries is the length of the seeded query sequence phase A
	// cycles through.
	generatedQueries = 20000
	quickQueries     = 200
	quickJobs        = 3
	cellsPageLimit   = 50
)

// dwarfserve is one server process.
type dwarfserve struct {
	cmd  *exec.Cmd
	base string
	dir  string
	done chan error
	once sync.Once
	err  error
}

func startServer(bin, dir, trace string) (*dwarfserve, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	// -pprof mounts the heap profile, which carries the server's
	// allocation total.
	args := []string{"-store", dir, "-addr", addr, "-pprof"}
	if trace != "" {
		args = append(args, "-trace", trace)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &dwarfserve{cmd: cmd, base: "http://" + addr, dir: dir, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	return s, nil
}

// waitReady polls /healthz until it answers 200.
func (s *dwarfserve) waitReady(c *http.Client) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-s.done:
			s.done <- err
			return fmt.Errorf("dwarfserve exited before it was ready: %v", err)
		default:
		}
		if resp, err := c.Get(s.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("dwarfserve not ready after 60 s")
}

// stop shuts the server down gracefully and waits for it to exit; it is
// safe to call more than once.
func (s *dwarfserve) stop() error {
	s.once.Do(func() {
		if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			s.cmd.Process.Kill()
		}
		select {
		case s.err = <-s.done:
		case <-time.After(60 * time.Second):
			s.cmd.Process.Kill()
			<-s.done
			s.err = fmt.Errorf("dwarfserve did not shut down within 60 s")
		}
	})
	return s.err
}

// peakRSSMB reads the server's peak resident set.
func (s *dwarfserve) peakRSSMB() (float64, error) {
	return peakRSSMB(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
}

// peakRSSMB reads VmHWM, a process's peak resident set, from its /proc
// status file.
func peakRSSMB(statusPath string) (float64, error) {
	b, err := os.ReadFile(statusPath)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// totalAllocMB reads the server's cumulative heap allocation from the
// runtime statistics at the end of its heap profile.
func totalAllocMB(c *http.Client, base string) (float64, error) {
	resp, err := c.Get(base + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	total := -1.0
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# TotalAlloc = "); ok {
			if total, err = strconv.ParseFloat(v, 64); err != nil {
				return 0, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK || total < 0 {
		return 0, fmt.Errorf("heap profile: status %d, no TotalAlloc", resp.StatusCode)
	}
	return total / (1 << 20), nil
}

// newClient is one load-generating client: a single keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   120 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// call sends one request and decodes a JSON answer into v. It returns the
// body size; any status but want is an error.
func call(c *http.Client, method, u string, body []byte, want int, v any) (int, error) {
	req, err := http.NewRequest(method, u, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != want {
		return len(raw), fmt.Errorf("%s %s: status %d: %.200s", method, u, resp.StatusCode, raw)
	}
	if v != nil {
		if err := json.Unmarshal(raw, v); err != nil {
			return len(raw), fmt.Errorf("%s %s: %w", method, u, err)
		}
	}
	return len(raw), nil
}

// query is one phase A request with what its answer must say.
type query struct {
	route                int
	url                  string
	body                 []byte
	bench, size, device  string
	wantTotal, wantCount int
}

type predictAnswer struct {
	PredictedNs float64  `json:"predicted_ns"`
	Measured    bool     `json:"measured"`
	ActualNs    *float64 `json:"actual_ns"`
}

// checkPredict holds a /v1/predict answer to the reference: a measured
// cell reports exactly the stored median, an unmeasured one none.
func checkPredict(ref *reference, bench, size, device string, measured bool, a predictAnswer) error {
	switch {
	case !(a.PredictedNs > 0):
		return fmt.Errorf("predict %s/%s/%s: predicted_ns %v", bench, size, device, a.PredictedNs)
	case a.Measured != measured:
		return fmt.Errorf("predict %s/%s/%s: measured=%v, want %v", bench, size, device, a.Measured, measured)
	case !measured:
		return nil
	case a.ActualNs == nil || *a.ActualNs != ref.cell[cellID(bench, size, device)].Kernel.Median:
		return fmt.Errorf("predict %s/%s/%s: actual_ns differs from the stored median", bench, size, device)
	}
	return nil
}

// scheduleBody is the fixed three-task heft request.
func scheduleBody(ref *reference) []byte {
	b, _ := json.Marshal(map[string]any{"tasks": scheduleTasks(ref.rows), "policy": "heft"})
	return b
}

// queries generates phase A's seeded query sequence.
func (r *run) queries(ref *reference, base string, n int) []query {
	rng := rand.New(rand.NewSource(r.cfg.seed))
	perBench := map[string]int{}
	for _, m := range ref.grid.Measurements {
		if !isHeld(m.Device.ID) {
			perBench[m.Benchmark]++
		}
	}
	sched := scheduleBody(ref)
	qs := make([]query, n)
	for i := range qs {
		q := query{route: i % len(routes)}
		switch routes[q.route].name {
		case "predict":
			row := ref.rows[rng.Intn(len(ref.rows))]
			q.bench, q.size = row[0], row[1]
			q.device = r.cfg.sel.Devices[rng.Intn(len(r.cfg.sel.Devices))]
			q.url = base + "/v1/predict?" + url.Values{"bench": {q.bench}, "size": {q.size}, "device": {q.device}}.Encode()
		case "cells":
			q.bench = ref.rows[rng.Intn(len(ref.rows))][0]
			q.wantTotal = perBench[q.bench]
			q.url = fmt.Sprintf("%s/v1/cells?bench=%s&limit=%d", base, url.QueryEscape(q.bench), cellsPageLimit)
		case "grid":
			q.wantCount = ref.kept
			q.url = base + "/v1/grid"
		case "schedule":
			q.url, q.body = base+"/v1/schedule", sched
		}
		qs[i] = q
	}
	return qs
}

// do sends a phase A query and checks its answer; it returns the body size.
func (q *query) do(c *http.Client, ref *reference) (int, error) {
	switch routes[q.route].name {
	case "predict":
		var a predictAnswer
		n, err := call(c, http.MethodGet, q.url, nil, http.StatusOK, &a)
		if err != nil {
			return n, err
		}
		return n, checkPredict(ref, q.bench, q.size, q.device, !isHeld(q.device), a)
	case "cells":
		var a struct {
			Items []json.RawMessage `json:"items"`
			Total int               `json:"total"`
		}
		n, err := call(c, http.MethodGet, q.url, nil, http.StatusOK, &a)
		if err == nil && (a.Total != q.wantTotal || len(a.Items) != min(q.wantTotal, cellsPageLimit)) {
			err = fmt.Errorf("cells %s: total %d with %d items, want %d", q.bench, a.Total, len(a.Items), q.wantTotal)
		}
		return n, err
	case "grid":
		var a struct {
			Count int `json:"count"`
		}
		n, err := call(c, http.MethodGet, q.url, nil, http.StatusOK, &a)
		if err == nil && a.Count != q.wantCount {
			err = fmt.Errorf("grid: %d cells, want %d", a.Count, q.wantCount)
		}
		return n, err
	default:
		var a struct {
			Tasks int `json:"tasks"`
		}
		n, err := call(c, http.MethodPost, q.url, q.body, http.StatusOK, &a)
		if err == nil && a.Tasks != 3 {
			err = fmt.Errorf("schedule: %d tasks placed, want 3", a.Tasks)
		}
		return n, err
	}
}

// phaseA is what the closed-loop clients measured.
type phaseA struct {
	lat       [][]float64 // ms, per route
	all       []float64
	errs      []error
	elapsed   time.Duration
	gridBytes int
}

// merge appends another stretch of phase A.
func (a *phaseA) merge(b phaseA) {
	if a.lat == nil {
		a.lat = make([][]float64, len(routes))
	}
	for i := range routes {
		a.lat[i] = append(a.lat[i], b.lat[i]...)
	}
	a.all = append(a.all, b.all...)
	a.errs = append(a.errs, b.errs...)
	a.elapsed += b.elapsed
	a.gridBytes = max(a.gridBytes, b.gridBytes)
}

// phaseA runs the clients over queries from, from+1, … (cycling through
// qs) until dur has passed or query to is reached.
func (r *run) phaseA(ref *reference, qs []query, from, to int, dur time.Duration) phaseA {
	type clientOut struct {
		lat       [][]float64
		errs      []error
		gridBytes int
	}
	outs := make([]clientOut, r.cfg.workers)
	var next atomic.Int64
	next.Store(int64(from))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := range outs {
		wg.Add(1)
		go func(o *clientOut) {
			defer wg.Done()
			hc := newClient()
			defer hc.CloseIdleConnections()
			o.lat = make([][]float64, len(routes))
			for {
				i := int(next.Add(1)) - 1
				if i >= to || time.Now().After(deadline) {
					return
				}
				q := &qs[i%len(qs)]
				t := time.Now()
				n, err := q.do(hc, ref)
				o.lat[q.route] = append(o.lat[q.route], float64(time.Since(t))/1e6)
				if err != nil {
					o.errs = append(o.errs, err)
				}
				if routes[q.route].name == "grid" {
					o.gridBytes = n
				}
			}
		}(&outs[c])
	}
	wg.Wait()
	a := phaseA{lat: make([][]float64, len(routes)), elapsed: time.Since(start)}
	for _, o := range outs {
		for i := range routes {
			a.lat[i] = append(a.lat[i], o.lat[i]...)
			a.all = append(a.all, o.lat[i]...)
		}
		a.errs = append(a.errs, o.errs...)
		a.gridBytes = max(a.gridBytes, o.gridBytes)
	}
	return a
}

// jobResult is one phase B job as the client saw it.
type jobResult struct {
	jobS, retrainS, cellsS, reloadMs float64
}

// job submits one row on the held-out devices, follows its event stream
// to grid_done, and asks /v1/predict about the row, which retrains the
// forest over the new cells.
func (r *run) job(c *http.Client, base string, ref *reference, row [2]string) (jobResult, error) {
	var res jobResult
	held := r.cfg.devices(true)
	body, _ := json.Marshal(map[string]any{
		"benchmarks": []string{row[0]}, "sizes": []string{row[1]}, "devices": held,
		"seed": r.cfg.seed, "workers": r.cfg.workers,
	})
	start := time.Now()
	var created struct {
		ID string `json:"id"`
	}
	if _, err := call(c, http.MethodPost, base+"/v1/jobs", body, http.StatusAccepted, &created); err != nil {
		return res, err
	}
	done, err := followJob(c, base+"/v1/jobs/"+created.ID+"/events")
	res.jobS = time.Since(start).Seconds()
	if err != nil {
		return res, err
	}
	if done.State != "done" || done.Hits != 0 || done.Misses != len(held) {
		return res, fmt.Errorf("job %s %s/%s: state %q, %d hits, %d misses; want done, 0, %d",
			created.ID, row[0], row[1], done.State, done.Hits, done.Misses, len(held))
	}
	var status struct {
		ElapsedMs float64 `json:"elapsed_ms"`
	}
	if _, err := call(c, http.MethodGet, base+"/v1/jobs/"+created.ID, nil, http.StatusOK, &status); err != nil {
		return res, err
	}
	res.cellsS, res.reloadMs = done.ElapsedMs/1e3, status.ElapsedMs-done.ElapsedMs

	u := base + "/v1/predict?" + url.Values{"bench": {row[0]}, "size": {row[1]}, "device": {held[0]}}.Encode()
	var a predictAnswer
	t := time.Now()
	_, err = call(c, http.MethodGet, u, nil, http.StatusOK, &a)
	res.retrainS = time.Since(t).Seconds()
	if err != nil {
		return res, err
	}
	return res, checkPredict(ref, row[0], row[1], held[0], true, a)
}

// gridDone is the terminal job event.
type gridDone struct {
	State     string  `json:"state"`
	Hits      int     `json:"store_hits"`
	Misses    int     `json:"store_misses"`
	ElapsedMs float64 `json:"elapsed_ms"`
}

// followJob reads a job's server-sent events until grid_done.
func followJob(c *http.Client, u string) (gridDone, error) {
	var done gridDone
	resp, err := c.Get(u)
	if err != nil {
		return done, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return done, fmt.Errorf("GET %s: status %d", u, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
		} else if v, ok := strings.CutPrefix(line, "data: "); ok && event == string(harness.EventGridDone) {
			return done, json.Unmarshal([]byte(v), &done)
		}
	}
	if err := sc.Err(); err != nil {
		return done, err
	}
	return done, fmt.Errorf("GET %s: stream ended without grid_done", u)
}

// scrape reads the server's Prometheus text into a series → value map.
func scrape(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// lifetime is what one server lifetime measured. Phase A runs in
// stretches of one probe interval, so that each stretch is calibrated by
// the probes around it; the *Mark slices hold each operation's probe.
type lifetime struct {
	srv       *dwarfserve
	cal       calibrator
	setupS    []float64
	setupMark []int
	readyS    []float64
	a         phaseA   // all of phase A
	stretches []phaseA // phase A by calibration stretch
	stretchMk []int
	jobs      []jobResult
	jobMark   []int
	before    map[string]float64 // /metrics before phase A
	afterA    map[string]float64 // after phase A
	afterB    map[string]float64 // after phase B
	rssMB     float64
	allocMB   float64 // the server's heap allocation over phase B
	jobsRows  [][2]string
}

// gridS is phase B's calibrated total job time: the time to grow the grid
// by the held-out devices through the server. The jobs differ by orders of
// magnitude in work, so their median sits wherever the row sizes happen to
// split, while their sum is steady.
func (lt *lifetime) gridS() float64 {
	sum := 0.0
	for i, j := range lt.jobs {
		sum += j.jobS * lt.cal.factor(lt.jobMark[i])
	}
	return sum
}

// setUp starts a server and times it until it has answered its first
// /v1/predict and /v1/schedule, which train the lazily built forests.
func (r *run) setUp(ref *reference, bin, dir, trace string) (*dwarfserve, float64, float64, error) {
	if err := copyDir(ref.fixture, dir); err != nil {
		return nil, 0, 0, err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	start := time.Now()
	srv, err := startServer(bin, dir, trace)
	if err != nil {
		return nil, 0, 0, err
	}
	if err := srv.waitReady(c); err != nil {
		srv.stop()
		return nil, 0, 0, err
	}
	ready := time.Since(start).Seconds()
	bench, size, device := ref.rows[0][0], ref.rows[0][1], r.cfg.devices(false)[0]
	var a predictAnswer
	u := srv.base + "/v1/predict?" + url.Values{"bench": {bench}, "size": {size}, "device": {device}}.Encode()
	_, err = call(c, http.MethodGet, u, nil, http.StatusOK, &a)
	if err == nil {
		err = checkPredict(ref, bench, size, device, true, a)
	}
	if err == nil {
		_, err = call(c, http.MethodPost, srv.base+"/v1/schedule", scheduleBody(ref), http.StatusOK, nil)
	}
	r.op(err)
	return srv, ready, time.Since(start).Seconds(), nil
}

// lifetime runs set-up, phase A for aDur and phase B over every row.
func (r *run) lifetime(ctx context.Context, ref *reference, tag, trace string, spawns int, aDur time.Duration) (*lifetime, error) {
	bin := filepath.Join(filepath.Dir(r.cfg.self), "dwarfserve")
	lt := &lifetime{cal: calibrator{workers: r.cfg.workers}}
	for k := 0; k < spawns; k++ {
		dir, err := filepath.Abs(filepath.Join(r.cfg.work, fmt.Sprintf("%s-%d", tag, k)))
		if err != nil {
			return nil, err
		}
		lt.setupMark = append(lt.setupMark, lt.cal.mark())
		srv, ready, setup, err := r.setUp(ref, bin, dir, trace)
		if err != nil {
			return nil, err
		}
		lt.readyS, lt.setupS = append(lt.readyS, ready), append(lt.setupS, setup)
		if k < spawns-1 {
			if err := srv.stop(); err != nil {
				return nil, err
			}
			continue
		}
		lt.srv = srv
	}
	srv := lt.srv
	defer srv.stop()
	c := newClient()
	defer c.CloseIdleConnections()
	var err error
	if lt.before, err = scrape(c, srv.base); err != nil {
		return nil, err
	}

	maxQ, jobRows := 1<<62, ref.rows
	if r.cfg.quick {
		maxQ, jobRows = quickQueries, ref.rows[:min(quickJobs, len(ref.rows))]
	}
	qs := r.queries(ref, srv.base, min(maxQ, generatedQueries))
	for sent := 0; sent < maxQ && lt.a.elapsed < aDur; sent += len(lt.stretches[len(lt.stretches)-1].all) {
		lt.stretchMk = append(lt.stretchMk, lt.cal.mark())
		a := r.phaseA(ref, qs, sent, maxQ, min(probeInterval, aDur-lt.a.elapsed))
		lt.stretches = append(lt.stretches, a)
		lt.a.merge(a)
	}
	for _, err := range lt.a.errs {
		r.op(err)
	}
	for i := len(lt.a.errs); i < len(lt.a.all); i++ {
		r.op(nil)
	}
	if lt.afterA, err = scrape(c, srv.base); err != nil {
		return nil, err
	}
	allocA, err := totalAllocMB(c, srv.base)
	if err != nil {
		return nil, err
	}

	for _, row := range jobRows {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		lt.jobMark = append(lt.jobMark, lt.cal.mark())
		res, err := r.job(c, srv.base, ref, row)
		r.op(err)
		lt.jobs = append(lt.jobs, res)
	}
	lt.cal.probe()
	lt.jobsRows = jobRows
	if lt.afterB, err = scrape(c, srv.base); err != nil {
		return nil, err
	}
	allocB, err := totalAllocMB(c, srv.base)
	if err != nil {
		return nil, err
	}
	lt.allocMB = allocB - allocA
	if lt.rssMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	r.op(r.checkServedStore(ref, srv.dir, jobRows))
	return lt, nil
}

// checkServedStore compares the server's store after phase B with the
// reference: the fixture's cells plus the job rows on the held-out
// devices, byte-identical in CSV.
func (r *run) checkServedStore(ref *reference, dir string, jobRows [][2]string) error {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	got, err := harness.GridFromStore(st)
	if err != nil {
		return err
	}
	byCell := map[string]*harness.Measurement{}
	for _, m := range got.Measurements {
		byCell[cellID(m.Benchmark, m.Size, m.Device.ID)] = m
	}
	jobRow := map[[2]string]bool{}
	for _, row := range jobRows {
		jobRow[row] = true
	}
	var want, have []*harness.Measurement
	for _, m := range ref.grid.Measurements {
		if isHeld(m.Device.ID) && !jobRow[[2]string{m.Benchmark, m.Size}] {
			continue
		}
		want = append(want, m)
		if h := byCell[cellID(m.Benchmark, m.Size, m.Device.ID)]; h != nil {
			have = append(have, h)
		}
	}
	if len(have) != len(want) || len(got.Measurements) != len(want) {
		return fmt.Errorf("served store holds %d cells (%d expected ones), want %d", len(got.Measurements), len(have), len(want))
	}
	dw, err := digest(want)
	if err != nil {
		return err
	}
	dh, err := digest(have)
	if err != nil {
		return err
	}
	if dw != dh {
		return fmt.Errorf("served store CSV digest %s differs from the reference %s", dh, dw)
	}
	return nil
}

// phaseAShare is the part of the time budget phase A gets; phase B's 41
// jobs, each followed by a forest retrain, take most of the rest.
const phaseAShare = 0.25

func (r *run) serve(ctx context.Context, ref *reference) error {
	aDur := time.Duration(phaseAShare * float64(r.cfg.budget))
	if r.cfg.trace {
		return r.serveTraced(ctx, ref, aDur/4)
	}
	lt, err := r.lifetime(ctx, ref, "serve", "", setupSpawns, aDur)
	if err != nil {
		return err
	}
	f := lt.cal.factor
	var jobS, setup []float64
	for _, j := range lt.jobs {
		jobS = append(jobS, j.jobS)
	}
	for i, s := range lt.setupS {
		setup = append(setup, s*f(lt.setupMark[i]))
	}
	// latency_ms is the sum of the routes' calibrated medians, so a change
	// to any one route moves it by that change. A median pooled over the
	// routes would sit between the middle two and ignore the others, and
	// phase A's equal shares are not a measured traffic mix. Unlike a
	// sweep's cells, a query waits for the scheduler to wake the server and
	// then the client, so it slows as the speed probe does, which rescales
	// it.
	latency := 0.0
	for k, rt := range routes {
		var xs []float64
		for i, a := range lt.stretches {
			for _, ms := range a.lat[k] {
				xs = append(xs, ms*f(lt.stretchMk[i]))
			}
		}
		latency += median(xs)
		r.detail("latency_ms."+rt.name, xs)
		r.detail("raw_latency_ms."+rt.name, lt.a.lat[k])
	}
	r.setE2E("grid_s", "s", lt.gridS())
	r.timingE2E("setup_s", "s", setup)
	r.setE2E("latency_ms", "ms", latency)
	r.setE2E("rss_mb", "MiB", lt.rssMB)
	r.setE2E("alloc_mb", "MiB", lt.allocMB)
	r.detail("raw_job_s", jobS)
	r.detail("raw_setup_s", lt.setupS)
	r.detail("probe_s", lt.cal.probes)
	return nil
}

// serveTraced runs an untraced lifetime with phase B alone, then a
// dwarfserve -trace lifetime with a short phase A and phase B; their job
// times give the tracing overhead. The per-layer numbers come
// from the traced lifetime, and the layer probes run over its final store.
func (r *run) serveTraced(ctx context.Context, ref *reference, aDur time.Duration) error {
	plain, err := r.lifetime(ctx, ref, "plain", "", 1, 0)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(r.cfg.traceDir, 0o755); err != nil {
		return err
	}
	prefix, err := filepath.Abs(filepath.Join(r.cfg.traceDir, r.cfg.workload))
	if err != nil {
		return err
	}
	lt, err := r.lifetime(ctx, ref, "traced", prefix+".server.trace.json", 1, aDur)
	if err != nil {
		return err
	}

	probe, err := spawnRep(ctx, &r.cfg, repSpec{Store: lt.srv.dir, Seed: r.cfg.seed, Rows: lt.jobsRows, Trace: prefix})
	if err == nil && probe.Err != "" {
		err = fmt.Errorf("probe: %s", probe.Err)
	}
	if err != nil {
		return err
	}
	for name, m := range probe.Layers {
		r.setLayer(name, m.Unit, m.Value)
	}

	jobMedian := func(lt *lifetime, f func(jobResult) float64) float64 {
		var xs []float64
		for _, j := range lt.jobs {
			xs = append(xs, f(j))
		}
		return median(xs)
	}
	r.setLayer("obs.trace_overhead_pct", "%", 100*(lt.gridS()-plain.gridS())/plain.gridS())
	r.setLayer("dwarfserve.ready_s", "s", median(lt.readyS))
	r.setLayer("dwarfserve.job_cells_s", "s", jobMedian(lt, func(j jobResult) float64 { return j.cellsS }))
	r.setLayer("dwarfserve.reload_ms", "ms", jobMedian(lt, func(j jobResult) float64 { return j.reloadMs }))
	r.setLayer("dwarfserve.retrain_s", "s", jobMedian(lt, func(j jobResult) float64 { return j.retrainS }))
	r.setLayer("dwarfserve.qps", "1/s", float64(len(lt.a.all))/lt.a.elapsed.Seconds())
	r.setLayer("dwarfserve.grid_bytes", "B", float64(lt.a.gridBytes))
	for i, rt := range routes {
		r.setLayer("dwarfserve.route_p50_ms."+rt.name, "ms", median(lt.a.lat[i]))
		r.setLayer("dwarfserve.route_p99_ms."+rt.name, "ms", percentile(lt.a.lat[i], 0.99))
		label := `{route="` + rt.pattern + `"}`
		sum := lt.afterA["http_request_ns_sum"+label] - lt.before["http_request_ns_sum"+label]
		if n := lt.afterA["http_request_ns_count"+label] - lt.before["http_request_ns_count"+label]; n > 0 {
			r.setLayer("dwarfserve.server_mean_ms."+rt.name, "ms", sum/n/1e6)
		}
	}

	// The job grids' own histograms and counters, over phase B.
	delta := func(name string) float64 { return lt.afterB[name] - lt.afterA[name] }
	r.setLayer("harness.prepare_s", "s", delta("harness_prepare_ns_sum")/1e9)
	r.setLayer("harness.measure_s", "s", delta("harness_measure_ns_sum")/1e9)
	r.setLayer("harness.measure_cells", "count", delta("harness_measure_ns_count"))
	r.setLayer("harness.decode_s", "s", delta("store_decode_ns_sum")/1e9)
	r.setLayer("harness.prepare_rows", "count", float64(len(lt.jobsRows)))
	r.setLayer("store.puts", "count", delta("store_appends_total"))
	if n := delta("harness_store_hits_total") + delta("harness_store_misses_total"); n > 0 {
		r.setLayer("harness.hit_ratio", "ratio", delta("harness_store_hits_total")/n)
	}
	return nil
}
