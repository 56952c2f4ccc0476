package main

// Async sweep jobs: POST /v1/jobs submits a benchmark × size × device
// selection that dwarfserve measures into its own store, in-process, on the
// harness event stream. Job state is an append-only event log plus a small
// status head; the SSE handler replays the log and then follows it live, so
// any number of watchers can attach at any point of the job's life and all
// see the same sequence. Completed cells are persisted by the harness
// before their cell_done event fires, which is what makes cancellation (and
// daemon shutdown) lossless: whatever the log says completed is on disk.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"opendwarfs/internal/faults"
	"opendwarfs/internal/harness"
	"opendwarfs/internal/obs"
	"opendwarfs/internal/suite"
)

type jobState string

const (
	jobRunning   jobState = "running"
	jobDone      jobState = "done"
	jobFailed    jobState = "failed"
	jobCancelled jobState = "cancelled"
)

// Job and SSE metric names (obsnames-checked).
const (
	mJobsCreatedTotal  = "jobs_created_total"
	mJobsRunning       = "jobs_running"
	mJobsFinishedTotal = "jobs_finished_total"
	mSSESubscribers    = "sse_subscribers"
	lblState           = "state"
)

// jobRequest is the POST /v1/jobs body. Empty axes mean "all", exactly as
// in dwarfsweep; options default to the paper methodology (50 samples,
// seed 1) so a job's cells fingerprint identically to a default sweep's.
type jobRequest struct {
	Benchmarks []string `json:"benchmarks"`
	Sizes      []string `json:"sizes"`
	Devices    []string `json:"devices"`
	Samples    int      `json:"samples,omitempty"`
	Seed       int64    `json:"seed,omitempty"`
	Workers    int      `json:"workers,omitempty"`
	// Retries sets the per-cell attempt count (with BackoffMs the base
	// backoff) — useful against a chaos plan; harmless without one.
	Retries   int     `json:"retries,omitempty"`
	BackoffMs float64 `json:"backoff_ms,omitempty"`
	// Chaos, when set, injects deterministic faults into the job's
	// measurements — the server-side face of the fault-injection layer.
	Chaos *faults.Plan `json:"chaos,omitempty"`
}

// wireEvent is the SSE/JSON form of one harness event: the summary fields
// plus the cell's median, without the full measurement payload.
type wireEvent struct {
	Kind      string  `json:"kind"`
	Benchmark string  `json:"benchmark,omitempty"`
	Size      string  `json:"size,omitempty"`
	Device    string  `json:"device,omitempty"`
	Done      int     `json:"done"`
	Total     int     `json:"total"`
	ElapsedMs float64 `json:"elapsed_ms"`
	Hits      int     `json:"store_hits"`
	Misses    int     `json:"store_misses"`
	MedianNs  float64 `json:"median_ns,omitempty"`
	Attempt   int     `json:"attempt,omitempty"`
	Reason    string  `json:"reason,omitempty"`
	Retries   int     `json:"retries,omitempty"`
	Failed    int     `json:"failed,omitempty"`
	State     string  `json:"state,omitempty"` // terminal job state, grid_done only
	Error     string  `json:"error,omitempty"`
}

// job is one asynchronous sweep: identity, cancel handle, and a mutex-
// guarded (event log, status head, notify channel) triple. notify is
// closed and replaced on every append, waking all followers. The status
// head reads its counters from the last event in the log: every event
// carries all five as of its emission.
type job struct {
	id      string
	req     jobRequest
	cancel  context.CancelFunc
	started time.Time

	// span is the job's serve.job trace span (nil without -trace); it
	// ends when the terminal event lands, so cancelled jobs close too.
	span *obs.Span

	mu          sync.Mutex
	state       jobState
	events      []wireEvent
	quarantined []string
	errMsg      string
	finished    time.Time
	notify      chan struct{}
}

// appendLocked adds ev to the log and wakes every follower. Callers hold
// j.mu.
func (j *job) appendLocked(ev wireEvent) {
	j.events = append(j.events, ev)
	if ev.Kind == string(harness.EventDeviceQuarantined) {
		j.quarantined = append(j.quarantined, ev.Device)
	}
	close(j.notify)
	j.notify = make(chan struct{})
}

func (j *job) append(ev wireEvent) {
	j.mu.Lock()
	j.appendLocked(ev)
	j.mu.Unlock()
}

func (j *job) finish(state jobState, errMsg string, ev wireEvent) {
	j.mu.Lock()
	j.state = state
	j.errMsg = errMsg
	j.finished = time.Now()
	j.appendLocked(ev)
	j.mu.Unlock()
}

// follow returns the log suffix from index i, whether the job is terminal,
// and the channel that signals the next append.
func (j *job) follow(i int) ([]wireEvent, bool, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var tail []wireEvent
	if i < len(j.events) {
		tail = append(tail, j.events[i:]...)
	}
	return tail, j.state != jobRunning, j.notify
}

func (j *job) status() map[string]any {
	j.mu.Lock()
	defer j.mu.Unlock()
	var last wireEvent
	if n := len(j.events); n > 0 {
		last = j.events[n-1]
	}
	st := map[string]any{
		"id":           j.id,
		"state":        j.state,
		"benchmarks":   j.req.Benchmarks,
		"sizes":        j.req.Sizes,
		"devices":      j.req.Devices,
		"done":         last.Done,
		"total":        last.Total,
		"store_hits":   last.Hits,
		"store_misses": last.Misses,
		"events":       len(j.events),
		"started":      j.started.UTC().Format(time.RFC3339Nano),
	}
	if last.Retries > 0 {
		st["retries"] = last.Retries
	}
	if last.Failed > 0 {
		st["failed"] = last.Failed
	}
	if len(j.quarantined) > 0 {
		st["quarantined"] = append([]string(nil), j.quarantined...)
	}
	if j.state != jobRunning {
		st["finished"] = j.finished.UTC().Format(time.RFC3339Nano)
		st["elapsed_ms"] = float64(j.finished.Sub(j.started)) / 1e6
	}
	if j.errMsg != "" {
		st["error"] = j.errMsg
	}
	return st
}

func toWire(ev harness.Event) wireEvent {
	w := wireEvent{
		Kind:      string(ev.Kind),
		Benchmark: ev.Benchmark,
		Size:      ev.Size,
		Device:    ev.Device,
		Done:      ev.Done,
		Total:     ev.Total,
		ElapsedMs: float64(ev.Elapsed) / 1e6,
		Hits:      ev.Hits,
		Misses:    ev.Misses,
	}
	w.Attempt, w.Reason = ev.Attempt, ev.Reason
	w.Retries, w.Failed = ev.Retries, ev.Failed
	if ev.Measurement != nil {
		w.MedianNs = ev.Measurement.Kernel.Median
	}
	return w
}

func (s *server) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeError(w, bodyStatus(err), fmt.Sprintf("invalid job request: %v", err))
		return
	}
	if req.Samples > maxJobSamples {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("samples %d over the limit of %d", req.Samples, maxJobSamples))
		return
	}
	if req.Retries > maxJobAttempts {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("retries %d over the limit of %d attempts", req.Retries, maxJobAttempts))
		return
	}
	opt := harness.DefaultOptions()
	if req.Samples > 0 {
		opt.Samples = req.Samples
	}
	if req.Seed != 0 {
		opt.Seed = req.Seed
	}
	if req.Chaos != nil {
		if err := req.Chaos.Validate(); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	if req.Retries < 0 {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("negative retries %d", req.Retries))
		return
	}
	spec := harness.GridSpec{
		Benchmarks: req.Benchmarks,
		Sizes:      req.Sizes,
		Devices:    req.Devices,
		Options:    opt,
		Workers:    req.Workers,
		Store:      s.st,
		Metrics:    s.metrics,
		Retry: harness.RetryPolicy{
			MaxAttempts: req.Retries,
			BaseBackoff: time.Duration(req.BackoffMs * float64(time.Millisecond)),
		},
	}
	if req.Chaos != nil {
		spec.Faults = req.Chaos
	}

	s.jobMu.Lock()
	if s.draining {
		s.jobMu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	jobCtx, cancel := context.WithCancel(s.jobsCtx)
	jobID := fmt.Sprintf("job-%06d", s.jobSeq+1)
	// With -trace, every job runs under a serve.job span carried by its
	// context, so the harness's grid/cell/measure spans nest beneath it.
	var span *obs.Span
	if s.tracer != nil {
		jobCtx = obs.ContextWithTracer(jobCtx, s.tracer)
		jobCtx, span = s.tracer.StartSpan(jobCtx, "serve.job", obs.String("job", jobID))
	}
	// Stream validates the selection synchronously: unknown benchmarks,
	// sizes or devices fail here, before a job is registered.
	events, err := harness.Stream(jobCtx, suite.New(), spec)
	if err != nil {
		s.jobMu.Unlock()
		span.End()
		cancel()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.jobSeq++
	j := &job{
		id:      jobID,
		req:     req,
		cancel:  cancel,
		span:    span,
		started: time.Now(),
		state:   jobRunning,
		notify:  make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.jobOrder = append(s.jobOrder, j.id)
	s.pruneJobsLocked()
	s.jobWG.Add(1)
	s.jobMu.Unlock()
	s.metrics.Counter(mJobsCreatedTotal).Inc()
	s.metrics.Gauge(mJobsRunning).Add(1)

	go s.runJob(j, events)
	writeJSON(w, http.StatusAccepted, map[string]any{
		"id":     j.id,
		"state":  jobRunning,
		"status": "/v1/jobs/" + j.id,
		"events": "/v1/jobs/" + j.id + "/events",
	})
}

// runJob consumes the job's event stream to completion. The harness
// persists every measured cell before announcing it, so this loop only
// mirrors events into the log; on the terminal event it settles the job
// state and reloads the query snapshot from the store so /v1/grid and
// /v1/predict serve the new cells.
func (s *server) runJob(j *job, events <-chan harness.Event) {
	defer s.jobWG.Done()
	defer j.cancel()
	for ev := range events {
		if ev.Kind != harness.EventGridDone {
			if ev.Kind == harness.EventDeviceQuarantined {
				s.quarantineDevice(ev.Device, ev.Reason)
			}
			j.append(toWire(ev))
			continue
		}
		state, errMsg := jobDone, ""
		switch {
		case ev.Err == nil:
		case errors.Is(ev.Err, context.Canceled):
			state = jobCancelled
		default:
			state, errMsg = jobFailed, ev.Err.Error()
		}
		// Reload even on cancellation or failure: any cells that did
		// complete are in the store and should be served. The reload is
		// also the -compact-over enforcement point — the store only grows
		// when jobs land cells.
		if ev.Grid.Cells() > 0 {
			if err := s.reloadFromStore(); err != nil {
				state, errMsg = jobFailed, err.Error()
			}
			s.maybeCompact()
		}
		wev := toWire(ev)
		wev.State = string(state)
		wev.Error = errMsg
		j.finish(state, errMsg, wev)
		j.span.SetAttr("state", string(state))
		j.span.End()
		s.metrics.Gauge(mJobsRunning).Add(-1)
		s.metrics.Counter(obs.Name(mJobsFinishedTotal, lblState, string(state))).Inc()
	}
}

func (s *server) lookupJob(w http.ResponseWriter, r *http.Request) *job {
	s.jobMu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.jobMu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no such job %q", r.PathValue("id")))
	}
	return j
}

func (s *server) handleJobList(w http.ResponseWriter, r *http.Request) {
	s.jobMu.Lock()
	ids := append([]string(nil), s.jobOrder...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.jobMu.Unlock()
	list := make([]map[string]any, 0, len(jobs))
	for _, j := range jobs {
		list = append(list, j.status())
	}
	writeJSON(w, http.StatusOK, map[string]any{"count": len(list), "jobs": list})
}

func (s *server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.lookupJob(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status())
	}
}

func (s *server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	j.cancel()
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	if state == jobRunning {
		state = "cancelling" // workers stop at their next context check
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"id": j.id, "state": state})
}

// handleJobEvents streams the job's event log as Server-Sent Events:
// replay from the start — or, on reconnect, from the index after the
// client's Last-Event-ID — then follow live appends until the terminal
// grid_done event or client disconnect. Each event carries its log index
// as the SSE id, so a dropped client resumes exactly where it left off:
//
//	id: 17
//	event: cell_done
//	data: {"kind":"cell_done","benchmark":...}
//
// While the job is quiet, a comment frame (": keep-alive") goes out every
// keep-alive interval so proxies and clients see a live connection.
func (s *server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	sent := 0
	s.serveSSE(w, r, func(lastID uint64) (err error) {
		sent, err = jobResumeIndex(lastID)
		return err
	}, func() ([]sseFrame, bool, <-chan struct{}) {
		// follow reads the tail and the terminal state under one lock, and
		// a terminal job appends nothing more: this tail is its last.
		tail, terminal, wake := j.follow(sent)
		frames := make([]sseFrame, len(tail))
		for i, ev := range tail {
			frames[i] = sseFrame{id: uint64(sent), event: ev.Kind, data: ev}
			sent++
		}
		return frames, terminal, wake
	})
}

// jobResumeIndex returns the log index after event lastID: the first event
// a client resuming from lastID has not seen.
func jobResumeIndex(lastID uint64) (int, error) {
	if lastID >= math.MaxInt {
		return 0, fmt.Errorf("invalid Last-Event-ID %d: past the end of any job log", lastID)
	}
	return int(lastID) + 1, nil
}

// maxRetainedJobs bounds the registry of a long-lived daemon: once
// exceeded, the oldest *terminal* jobs (and their event logs) are evicted.
// Running jobs are never evicted, so the registry can exceed the cap only
// while that many sweeps are actually in flight.
const maxRetainedJobs = 64

// pruneJobsLocked evicts the oldest terminal jobs beyond maxRetainedJobs.
// Callers hold s.jobMu.
func (s *server) pruneJobsLocked() {
	excess := len(s.jobOrder) - maxRetainedJobs
	if excess <= 0 {
		return
	}
	kept := s.jobOrder[:0]
	for _, id := range s.jobOrder {
		j := s.jobs[id]
		j.mu.Lock()
		terminal := j.state != jobRunning
		j.mu.Unlock()
		if excess > 0 && terminal {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.jobOrder = kept
}

// runningJobs counts non-terminal jobs (for the shutdown log line).
func (s *server) runningJobs() int {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	n := 0
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.state == jobRunning {
			n++
		}
		j.mu.Unlock()
	}
	return n
}

// shutdownJobs rejects new jobs, cancels every running one through its
// context, and waits for their event streams to settle. By the time it
// returns, every completed cell is in the store and every job log ends
// with a terminal grid_done event.
func (s *server) shutdownJobs() {
	s.jobMu.Lock()
	s.draining = true
	s.jobMu.Unlock()
	s.jobsCancel()
	s.jobWG.Wait()
}
