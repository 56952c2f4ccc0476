package main

import (
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"
)

// FuzzLastEventID feeds arbitrary Last-Event-ID values to the job event
// stream of a finished job. An id the parser and the job route accept must
// resume at index ≥ 1 without overflow, and be served 200; every other
// value must be refused with a 400. Nothing may panic.
func FuzzLastEventID(f *testing.F) {
	for _, seed := range []string{"0", "17", "-1", "not-a-number", "9223372036854775807", "18446744073709551615"} {
		f.Add(seed)
	}
	quietLog(f)
	srv, _ := newTestServer(f)
	j := &job{id: "job-fuzz", state: jobDone, started: time.Now(), notify: make(chan struct{}),
		events: []wireEvent{{Kind: "cell_done", Done: 1, Total: 1}, {Kind: "grid_done", Done: 1, Total: 1}}}
	srv.jobs[j.id] = j
	srv.jobOrder = append(srv.jobOrder, j.id)

	f.Fuzz(func(t *testing.T, v string) {
		accepted := false
		if id, err := parseLastEventID(v); err == nil {
			i, err := jobResumeIndex(id)
			switch {
			case err != nil && id < math.MaxInt:
				t.Fatalf("Last-Event-ID %q: job route refused a resumable id: %v", v, err)
			case err == nil && (i < 1 || uint64(i-1) != id):
				t.Fatalf("Last-Event-ID %q resumes the job log at index %d", v, i)
			}
			accepted = err == nil
		}
		req := httptest.NewRequest("GET", "/v1/jobs/"+j.id+"/events", nil)
		req.Header.Set("Last-Event-ID", v)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		want := http.StatusBadRequest
		if accepted || v == "" {
			want = http.StatusOK
		}
		if rec.Code != want {
			t.Fatalf("Last-Event-ID %q: status %d, want %d", v, rec.Code, want)
		}
	})
}

// FuzzDecodeCursor feeds arbitrary /v1/cells cursors and page limits to
// the decoder and the route. A cursor that decodes has exactly two NUL
// separators and its decoded form round-trips through encodeCursor; the
// route answers 200 for exactly the positive limits with a cursor that
// decodes, and 400 for every other pair. Nothing may panic.
func FuzzDecodeCursor(f *testing.F) {
	quietLog(f)
	srv, g := newTestServer(f)
	for _, m := range g.Measurements {
		c := encodeCursor(cellCursor(m))
		f.Add(c, int64(1))
		f.Add(c, int64(math.MaxInt64))
		f.Add(c[:len(c)-1], int64(2))
		f.Add(c[:len(c)/2], int64(1))
	}
	for _, seed := range []string{"", "!!!", "not base64", "====", "AAAA"} {
		f.Add(seed, int64(defaultCellPageLimit))
	}
	f.Add("", int64(0))
	f.Add("", int64(-1))
	f.Add("", int64(math.MinInt64))

	f.Fuzz(func(t *testing.T, cur string, limit int64) {
		d, err := decodeCursor(cur)
		if err == nil {
			if n := strings.Count(d, "\x00"); n != 2 {
				t.Fatalf("cursor %q decoded to %q with %d NULs", cur, d, n)
			}
			if back, err := decodeCursor(encodeCursor(d)); err != nil || back != d {
				t.Fatalf("cursor %q: %q does not round-trip through encodeCursor (%q, %v)", cur, d, back, err)
			}
		}
		q := url.Values{"cursor": {cur}, "limit": {strconv.FormatInt(limit, 10)}}
		req := httptest.NewRequest("GET", "/v1/cells?"+q.Encode(), nil)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		want := http.StatusBadRequest
		if (err == nil || cur == "") && limit > 0 {
			want = http.StatusOK
		}
		if rec.Code != want {
			t.Fatalf("cursor %q, limit %d: status %d, want %d", cur, limit, rec.Code, want)
		}
	})
}

// quietLog discards the server's log for the rest of a fuzz target: the
// middleware logs every refused request, which at fuzzing rates would
// flood the run's output.
func quietLog(f *testing.F) {
	prev := log.Writer()
	log.SetOutput(io.Discard)
	f.Cleanup(func() { log.SetOutput(prev) })
}
