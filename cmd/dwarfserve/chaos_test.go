package main

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestChaosJobQuarantineFlow drives the server-side fault story end to
// end: a chaos job drops a device, the job's counters and quarantine list
// reflect it, /v1/status reports the quarantined device, and /v1/schedule
// keeps it out of the fleet — 409 when asked for explicitly, silently
// excluded from the default fleet.
func TestChaosJobQuarantineFlow(t *testing.T) {
	srv, _ := newTestServer(t)

	id := postJob(t, srv,
		`{"benchmarks":["crc","fft"],"sizes":["tiny"],"devices":["i7-6700k","k20m"],"samples":6,`+
			`"retries":3,"chaos":{"seed":7,"drop":["k20m"]}}`,
		http.StatusAccepted)
	status := waitJob(t, srv, id)
	if status["state"] != string(jobDone) {
		t.Fatalf("chaos job state %v, want done (failed cells do not fail the job)", status["state"])
	}
	// i7's 2 cells pre-existed (store hits); k20m's 2 failed.
	if status["done"].(float64) != 2 {
		t.Fatalf("done %v, want 2 (the surviving device's cells)", status["done"])
	}
	if status["failed"].(float64) != 2 {
		t.Fatalf("failed %v, want k20m's 2 cells", status["failed"])
	}
	quar, _ := status["quarantined"].([]any)
	if len(quar) != 1 || quar[0] != "k20m" {
		t.Fatalf("job quarantined %v, want [k20m]", status["quarantined"])
	}

	// The quarantine outlives the job: /v1/status lists it, while /healthz
	// stays pure liveness.
	statusResp := get(t, srv, "/v1/status", http.StatusOK)
	hq, _ := statusResp["quarantined"].([]any)
	if len(hq) != 1 || hq[0] != "k20m" {
		t.Fatalf("/v1/status quarantined %v, want [k20m]", statusResp["quarantined"])
	}
	if body := getRaw(t, srv, "/healthz"); body != "{\"status\":\"ok\"}\n" {
		t.Fatalf("/healthz body %q, want exactly {\"status\":\"ok\"}", body)
	}

	// Explicitly scheduling onto the dead device is a conflict.
	postSchedule(t, srv,
		`{"tasks":[{"benchmark":"crc","size":"tiny","count":2}],"devices":["i7-6700k","k20m"]}`,
		http.StatusConflict)
	// The default fleet just shrinks around it.
	resp := postSchedule(t, srv,
		`{"tasks":[{"benchmark":"crc","size":"tiny","count":4},{"benchmark":"fft","size":"tiny","count":4}]}`,
		http.StatusOK)
	for _, raw := range resp["slots"].([]any) {
		slot := raw.(map[string]any)
		if slot["device"] == "k20m" {
			t.Fatalf("default fleet scheduled onto the quarantined device: %v", slot)
		}
	}
	for _, raw := range resp["lanes"].([]any) {
		if raw.(map[string]any)["device"] == "k20m" {
			t.Fatal("quarantined device still has a lane")
		}
	}
}

func TestChaosJobValidation(t *testing.T) {
	srv, _ := newTestServer(t)
	postJob(t, srv, `{"benchmarks":["crc"],"sizes":["tiny"],"devices":["i7-6700k"],"chaos":{"transient_rate":1.5}}`,
		http.StatusBadRequest)
	postJob(t, srv, `{"benchmarks":["crc"],"sizes":["tiny"],"devices":["i7-6700k"],"retries":-1}`,
		http.StatusBadRequest)
}

// sseClient holds one streaming /events connection and a line scanner
// over it.
type sseClient struct {
	resp    *http.Response
	scanner *bufio.Scanner
}

func dialSSE(t *testing.T, base, id, lastEventID string) *sseClient {
	t.Helper()
	req, err := http.NewRequest("GET", base+"/v1/jobs/"+id+"/events", nil)
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
		t.Fatalf("SSE status %d", resp.StatusCode)
	}
	return &sseClient{resp: resp, scanner: bufio.NewScanner(resp.Body)}
}

// readUntil scans lines until one has the given prefix, failing the test
// if the stream ends first. Returns the matching line.
func (c *sseClient) readUntil(t *testing.T, prefix string) string {
	t.Helper()
	for c.scanner.Scan() {
		if line := c.scanner.Text(); strings.HasPrefix(line, prefix) {
			return line
		}
	}
	t.Fatalf("SSE stream ended before a %q line (err: %v)", prefix, c.scanner.Err())
	return ""
}

// TestSSEKeepAliveAndResume covers the reconnect story: comment frames
// flow while the job is quiet, a client that drops mid-stream resumes
// with Last-Event-ID and receives exactly the events it missed.
func TestSSEKeepAliveAndResume(t *testing.T) {
	srv, _ := newTestServer(t)
	srv.keepAlive = 20 * time.Millisecond

	// A hand-built running job: the test controls exactly when events
	// appear, with no measurement underneath.
	j := &job{id: "job-sse-test", state: jobRunning, started: time.Now(), notify: make(chan struct{})}
	srv.jobMu.Lock()
	srv.jobs[j.id] = j
	srv.jobOrder = append(srv.jobOrder, j.id)
	srv.jobMu.Unlock()

	ts := httptest.NewServer(srv)
	defer ts.Close()

	// While the job is quiet the connection carries keep-alive comments.
	c1 := dialSSE(t, ts.URL, j.id, "")
	c1.readUntil(t, ": keep-alive")

	// First event arrives with its log index as the SSE id.
	j.append(wireEvent{Kind: "cell_done", Benchmark: "crc", Done: 1, Total: 3})
	if line := c1.readUntil(t, "id: "); line != "id: 0" {
		t.Fatalf("first event %q, want id: 0", line)
	}
	c1.readUntil(t, "data: ")
	// Mid-stream disconnect: the client walks away after event 0.
	c1.resp.Body.Close()

	// Two more events land while nobody is watching, the last terminal.
	j.append(wireEvent{Kind: "cell_done", Benchmark: "fft", Done: 2, Total: 3})
	j.finish(jobDone, "", wireEvent{Kind: "grid_done", Done: 3, Total: 3, State: string(jobDone)})

	// Reconnect with Last-Event-ID: 0 — replay must start at id 1 and the
	// stream must end by itself after the terminal event.
	c2 := dialSSE(t, ts.URL, j.id, "0")
	var ids, kinds []string
	for c2.scanner.Scan() {
		line := c2.scanner.Text()
		if strings.HasPrefix(line, "id: ") {
			ids = append(ids, strings.TrimPrefix(line, "id: "))
		}
		if strings.HasPrefix(line, "event: ") {
			kinds = append(kinds, strings.TrimPrefix(line, "event: "))
		}
	}
	c2.resp.Body.Close()
	if err := c2.scanner.Err(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(ids, ",") != "1,2" {
		t.Fatalf("resumed ids %v, want [1 2]", ids)
	}
	if len(kinds) != 2 || kinds[1] != "grid_done" {
		t.Fatalf("resumed kinds %v, want [cell_done grid_done]", kinds)
	}

	// A malformed Last-Event-ID is a client error, not a silent replay.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+j.id+"/events", nil)
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

// TestSSEResumePastAnyJobLog: a Last-Event-ID whose successor overflows
// int cannot index any job log; it is refused with a 400 before the
// stream starts, never a panic after the 200.
func TestSSEResumePastAnyJobLog(t *testing.T) {
	srv, _ := newTestServer(t)
	j := &job{id: "job-sse-overflow", state: jobDone, started: time.Now(), notify: make(chan struct{}),
		events: []wireEvent{{Kind: "cell_done", Done: 1, Total: 1}, {Kind: "grid_done", Done: 1, Total: 1}}}
	srv.jobMu.Lock()
	srv.jobs[j.id] = j
	srv.jobOrder = append(srv.jobOrder, j.id)
	srv.jobMu.Unlock()

	for _, last := range []string{"9223372036854775807", "18446744073709551615"} {
		req := httptest.NewRequest("GET", "/v1/jobs/"+j.id+"/events", nil)
		req.Header.Set("Last-Event-ID", last)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest || rec.Header().Get("Content-Type") == "text/event-stream" {
			t.Fatalf("Last-Event-ID %s: status %d, content type %q; want a 400 before the stream",
				last, rec.Code, rec.Header().Get("Content-Type"))
		}
	}
}
