package main

// Resumable Server-Sent Events: the job event log (GET /v1/jobs/{id}/events)
// and the telemetry stream (GET /v1/metrics/stream) share one serving loop.
// Each route supplies only how a Last-Event-ID positions it and which frames
// are due next; serveSSE owns the protocol around them.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// sseFrame is one event: its SSE id (what a reconnecting client sends back
// as Last-Event-ID), event name and JSON-encoded data.
type sseFrame struct {
	id    uint64
	event string
	data  any
}

// parseLastEventID parses a Last-Event-ID header value: the decimal id of
// the last frame the client received.
func parseLastEventID(v string) (uint64, error) {
	id, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid Last-Event-ID %q", v)
	}
	return id, nil
}

// serveSSE streams one resumable route. When the client sends a
// Last-Event-ID, resume positions the route after it; an id that does not
// parse, or that resume rejects, is answered 400 before any header goes
// out. Then the loop calls next for the frames due, writes them and
// flushes once per batch, stops when next reports done, and otherwise
// waits for next's wake channel, writing a keep-alive comment every
// keep-alive interval, until the client goes away.
func (s *server) serveSSE(w http.ResponseWriter, r *http.Request,
	resume func(lastID uint64) error,
	next func() (frames []sseFrame, done bool, wake <-chan struct{})) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "response writer does not support streaming")
		return
	}
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		id, err := parseLastEventID(v)
		if err == nil {
			err = resume(id)
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	s.metrics.Gauge(mSSESubscribers).Add(1)
	defer s.metrics.Gauge(mSSESubscribers).Add(-1)

	keepAlive := time.NewTicker(s.keepAlive)
	defer keepAlive.Stop()
	for {
		frames, done, wake := next()
		for _, f := range frames {
			data, err := json.Marshal(f.data)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", f.id, f.event, data); err != nil {
				return // client went away
			}
		}
		flusher.Flush()
		if done {
			return
		}
		select {
		case <-wake:
		case <-keepAlive.C:
			if _, err := fmt.Fprint(w, ": keep-alive\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
