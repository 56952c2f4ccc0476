package main

// Live telemetry: the server samples its own registry into a
// series.Recorder on a fixed interval, evaluates SLO alert rules
// against the trailing history on every tick, and serves three views of
// the result:
//
//	GET /v1/metrics/history?window=60s   windowed rates / min-max / percentiles (JSON)
//	GET /v1/metrics/stream               live delta stream (SSE, Last-Event-ID resume)
//	GET /v1/alerts                       every rule's firing/resolved state
//
// The stream's contract is exact reconciliation: the first frame is an
// absolute snapshot, every later frame a delta, and summing them
// reproduces GET /metrics counter values at any sample boundary — the
// CI gate holds a streaming client's accumulator against a final scrape
// during a chaos job. A reconnecting client sends the last sample's
// sequence number as Last-Event-ID; missed samples still in the ring
// replay as deltas, and a client that outran the ring gets a fresh
// snapshot (marked "snapshot": true) to reset its accumulator.

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"time"

	"opendwarfs/internal/obs/series"
	"opendwarfs/internal/obs/slo"
)

// Telemetry metric names (obsnames-checked).
const (
	mAlertsFiring = "alerts_firing"
)

// Default alert-rule names: snake_case constants, exactly like metric
// names — the obsnames analyzer checks these at the constructor calls.
const (
	ruleFailedCellsBurn = "failed_cells_burn"
	ruleJobsBacklogged  = "jobs_backlogged"
)

// defaultAlertRules is the built-in rule set, active without -alerts: a
// burn-rate alert on cell failures (the chaos smoke drives this through
// fire and resolve) and a sustained-backlog threshold on running jobs.
func defaultAlertRules() []slo.Rule {
	return []slo.Rule{
		slo.BurnRate(ruleFailedCellsBurn, "harness_failed_cells_total", 0.5, 30*time.Second),
		slo.Threshold(ruleJobsBacklogged, "jobs_running", slo.OpGE, 8, 10*time.Second),
	}
}

// initTelemetry (re)builds the recorder and alert engine. Call before
// the server starts serving and before runSampler — the fields are not
// re-assigned afterwards (tests re-init with an injected clock, then
// drive sampleTick by hand).
func (s *server) initTelemetry(opt series.Options, rules []slo.Rule) error {
	rec := series.New(s.metrics, opt)
	eng, err := slo.NewEngine(rec, rules, s.metrics.Gauge(mAlertsFiring))
	if err != nil {
		return err
	}
	s.series, s.alerts = rec, eng
	return nil
}

// sampleTick takes one telemetry sample and evaluates the alert rules
// at its timestamp. The sampler loop calls it on the interval; tests
// call it directly under a fake clock.
func (s *server) sampleTick() {
	s.series.Sample()
	_, ns := s.series.LastSample()
	s.alerts.Eval(ns)
}

// runSampler takes one sample at once, then drives sampleTick on the
// recorder's interval until ctx is cancelled (shutdown). The first sample
// is the baseline a rate is measured from: without it, counts that moved
// before the first tick land in the ring's oldest sample, whose delta no
// window counts, so a burst of failures in the first interval would never
// fire a burn-rate alert.
func (s *server) runSampler(ctx context.Context) {
	s.sampleTick()
	t := time.NewTicker(s.series.Interval())
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.sampleTick()
		}
	}
}

// handleMetricsHistory answers windowed summaries over the ring:
// per-counter deltas and rates, gauge min/max, histogram percentiles.
// window= accepts a Go duration (default 60s). Before two samples exist
// there is no interval to summarize; the response says so.
func (s *server) handleMetricsHistory(w http.ResponseWriter, r *http.Request) {
	window := time.Minute
	if v := r.URL.Query().Get("window"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid window %q (want a positive duration like 30s)", v))
			return
		}
		window = d
	}
	sum, ok := s.series.History(window)
	samples, retained, capacity := s.series.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"window_sec":       window.Seconds(),
		"populated":        ok,
		"samples_total":    samples,
		"samples_retained": retained,
		"capacity":         capacity,
		"summary":          sum,
	})
}

// handleMetricsStream streams telemetry samples as Server-Sent Events.
// A fresh subscriber gets one absolute snapshot frame, then one delta
// frame per sample; each frame's SSE id is its sample sequence number.
// On reconnect with Last-Event-ID the missed deltas replay from the
// ring, or — if the client was gone longer than the ring retains, or
// sends an id this recorder never issued (one from an earlier server
// lifetime) — a new snapshot frame resets it:
//
//	id: 42
//	event: snapshot | sample
//	data: {"seq":42,"unix_ns":...,"counters":{...},...}
//
// Quiet intervals carry keep-alive comment frames, exactly like the job
// event stream.
func (s *server) handleMetricsStream(w http.ResponseWriter, r *http.Request) {
	// A fresh subscriber starts past every sequence number, which Since
	// answers with a resync: its first frame is the snapshot.
	sent := uint64(math.MaxUint64)
	s.serveSSE(w, r, func(lastID uint64) error {
		sent = lastID
		return nil
	}, func() ([]sseFrame, bool, <-chan struct{}) {
		wake := s.series.Notify()
		var frames []sseFrame
		pts, resync := s.series.Since(sent)
		if resync {
			p := s.series.SnapshotPoint()
			frames = append(frames, sseFrame{id: p.Seq, event: "snapshot", data: p})
			sent = p.Seq
			pts, _ = s.series.Since(sent)
		}
		for _, p := range pts {
			frames = append(frames, sseFrame{id: p.Seq, event: "sample", data: p})
			sent = p.Seq
		}
		return frames, false, wake
	})
}

// handleAlerts reports every rule's current evaluation plus the firing
// subset — the same rollup /v1/status folds into its health field.
func (s *server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	firing := s.alerts.Firing()
	if firing == nil {
		firing = []string{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"alerts": s.alerts.Alerts(),
		"firing": firing,
	})
}
