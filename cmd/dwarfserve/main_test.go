package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"opendwarfs/internal/harness"
	"opendwarfs/internal/predict"
	"opendwarfs/internal/store"
	"opendwarfs/internal/suite"
)

// newTestServer sweeps a tiny grid into a fresh store and serves it — the
// same pipeline as `dwarfsweep -store` followed by `dwarfserve -store`: one
// store handle, from which the server loads its own snapshot.
func newTestServer(t testing.TB) (*server, *harness.Grid) {
	t.Helper()
	st := openStore(t)
	opt := harness.DefaultOptions()
	opt.Samples = 6
	g, err := harness.RunGrid(context.Background(), suite.New(), harness.GridSpec{
		Benchmarks: []string{"crc", "fft"},
		Sizes:      []string{"tiny"},
		Devices:    []string{"i7-6700k", "gtx1080"},
		Options:    opt,
		Workers:    2,
		Store:      st,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := predict.DefaultConfig()
	cfg.Trees = 20 // keep the /v1/predict test fast
	srv, err := newServer(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv, g
}

// openStore opens a fresh store, as main does.
func openStore(t testing.TB) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// storeRecords counts the store's cell records and its preparation
// records (no device, no schema), failing on any record that is neither.
func storeRecords(t *testing.T, st store.CellStore) (cells, preps int) {
	t.Helper()
	for _, rec := range st.Records() {
		switch {
		case rec.Device != "" && rec.Schema == harness.StoreSchemaVersion:
			cells++
		case rec.Device == "" && rec.Schema == 0:
			preps++
		default:
			t.Fatalf("record %s is neither a cell nor a preparation: %+v", rec.Key, rec)
		}
	}
	return cells, preps
}

// checkJobStore asserts that a fresh store written by one job holds
// exactly the job's completed cells plus one preparation per row the job
// prepared, and that every append was one of the two.
func checkJobStore(t *testing.T, srv *server, st store.CellStore, status map[string]any) {
	t.Helper()
	done := int(status["done"].(float64))
	prepared := srv.metrics.CounterValue("harness_prepares_total")
	cells, preps := storeRecords(t, st)
	if cells != done {
		t.Fatalf("store holds %d cells, job reported %d completed", cells, done)
	}
	if int64(preps) != prepared {
		t.Fatalf("store holds %d preparations, job prepared %d rows", preps, prepared)
	}
	misses := int64(status["store_misses"].(float64))
	if got := srv.metrics.CounterValue("store_appends_total"); got != misses+prepared {
		t.Fatalf("store_appends_total = %d, want %d misses + %d preparations", got, misses, prepared)
	}
}

func get(t *testing.T, srv *server, url string, wantCode int) map[string]any {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != wantCode {
		t.Fatalf("GET %s: status %d (body %s), want %d", url, rec.Code, rec.Body, wantCode)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("GET %s: invalid JSON %q: %v", url, rec.Body, err)
	}
	return body
}

func TestHealthz(t *testing.T) {
	srv, g := newTestServer(t)
	body := get(t, srv, "/healthz", http.StatusOK)
	if body["status"] != "ok" {
		t.Fatalf("status %v", body["status"])
	}
	// /healthz is pure liveness; the counters live in /v1/status.
	if _, has := body["cells"]; has {
		t.Fatalf("healthz still reports cells: %v", body)
	}
	status := get(t, srv, "/v1/status", http.StatusOK)
	if int(status["cells"].(float64)) != g.Cells() {
		t.Fatalf("status cells %v, want %d", status["cells"], g.Cells())
	}
	for _, key := range []string{"version", "go_version", "vcs_revision"} {
		if v, _ := status[key].(string); v == "" {
			t.Fatalf("status %s missing: %v", key, status)
		}
	}
	if status["uptime_ms"].(float64) < 0 {
		t.Fatalf("negative uptime %v", status["uptime_ms"])
	}
	if int(status["jobs_running"].(float64)) != 0 || int(status["jobs"].(float64)) != 0 {
		t.Fatalf("fresh server reports jobs: %v", status)
	}
}

func TestCellsFilter(t *testing.T) {
	srv, _ := newTestServer(t)

	all := get(t, srv, "/v1/cells", http.StatusOK)
	if int(all["total"].(float64)) != 4 {
		t.Fatalf("unfiltered total %v, want 4", all["total"])
	}
	if n := len(all["items"].([]any)); n != 4 {
		t.Fatalf("%d items, want 4", n)
	}
	if all["next_cursor"] != "" {
		t.Fatalf("single-page listing has next_cursor %v", all["next_cursor"])
	}

	one := get(t, srv, "/v1/cells?bench=fft&size=tiny&device=gtx1080", http.StatusOK)
	if int(one["total"].(float64)) != 1 {
		t.Fatalf("filtered total %v, want 1", one["total"])
	}
	cell := one["items"].([]any)[0].(map[string]any)
	if cell["benchmark"] != "fft" || cell["device"] != "gtx1080" {
		t.Fatalf("wrong cell %v", cell)
	}
	if cell["median_ns"].(float64) <= 0 {
		t.Fatalf("non-positive median %v", cell["median_ns"])
	}

	none := get(t, srv, "/v1/cells?bench=nosuch", http.StatusOK)
	if int(none["total"].(float64)) != 0 {
		t.Fatalf("phantom cells %v", none["total"])
	}
}

// TestCellsPagination walks the 4-cell snapshot one cell at a time through
// the cursor, checks the pages tile the full listing exactly, and verifies
// limit/cursor validation.
func TestCellsPagination(t *testing.T) {
	srv, _ := newTestServer(t)

	var paged []any
	cursor, pages := "", 0
	for {
		url := "/v1/cells?limit=1"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		body := get(t, srv, url, http.StatusOK)
		if int(body["total"].(float64)) != 4 {
			t.Fatalf("page total %v, want 4 on every page", body["total"])
		}
		items := body["items"].([]any)
		if len(items) != 1 {
			t.Fatalf("page of %d items, want 1", len(items))
		}
		paged = append(paged, items...)
		pages++
		if pages > 8 {
			t.Fatal("cursor loop does not terminate")
		}
		if cursor = body["next_cursor"].(string); cursor == "" {
			break
		}
	}
	if pages != 4 {
		t.Fatalf("walked %d pages, want 4", pages)
	}

	// The concatenated pages are exactly the unpaginated listing.
	all := get(t, srv, "/v1/cells", http.StatusOK)
	want, _ := json.Marshal(all["items"])
	got, _ := json.Marshal(paged)
	if string(got) != string(want) {
		t.Fatalf("paged items differ from full listing:\npaged: %s\nfull:  %s", got, want)
	}

	// The retired pre-pagination {count, cells} shape is gone: its query
	// parameter is ignored and gets the envelope like any other request.
	legacyQuery := url.Values{"legacy": {"1"}}.Encode()
	legacy := get(t, srv, "/v1/cells?"+legacyQuery, http.StatusOK)
	if _, ok := legacy["items"].([]any); !ok || legacy["total"] == nil || legacy["next_cursor"] == nil || legacy["cells"] != nil {
		t.Fatalf("?%s did not get the {items, next_cursor, total} envelope: %v", legacyQuery, legacy)
	}

	// A limit near MaxInt with a cursor is one page holding the rest.
	first := get(t, srv, "/v1/cells?bench=fft&limit=1", http.StatusOK)
	rest := get(t, srv, "/v1/cells?bench=fft&limit=9223372036854775807&cursor="+first["next_cursor"].(string), http.StatusOK)
	if n := len(rest["items"].([]any)); n != 1 || rest["next_cursor"] != "" {
		t.Fatalf("limit=MaxInt64 after a cursor: %d items, next_cursor %v; want the last fft cell", n, rest["next_cursor"])
	}

	get(t, srv, "/v1/cells?limit=0", http.StatusBadRequest)
	get(t, srv, "/v1/cells?limit=x", http.StatusBadRequest)
	get(t, srv, "/v1/cells?cursor=%25not-base64", http.StatusBadRequest)
}

func TestGrid(t *testing.T) {
	srv, _ := newTestServer(t)
	body := get(t, srv, "/v1/grid", http.StatusOK)
	if int(body["count"].(float64)) != 4 {
		t.Fatalf("count %v, want 4", body["count"])
	}
	if n := len(body["benchmarks"].([]any)); n != 2 {
		t.Fatalf("%d benchmarks, want 2", n)
	}
	if n := len(body["devices"].([]any)); n != 2 {
		t.Fatalf("%d devices, want 2", n)
	}
}

// TestRouteBodiesGolden pins the bytes of the read routes: one SHA-256
// over the /v1/grid body, two /v1/cells pages, /v1/predict for a measured
// and an unmeasured cell, and /v1/schedule under heft and energy over the
// default fleet (13 of its 15 devices predicted). Each request is made
// twice, so the second answer is whatever the server keeps between
// requests. Refresh the digest only with a documented wire change.
func TestRouteBodiesGolden(t *testing.T) {
	srv, _ := newTestServer(t)
	sum := sha256.New()
	do := func(method, target, body string) []byte {
		t.Helper()
		var first []byte
		for i := 0; i < 2; i++ {
			req := httptest.NewRequest(method, target, strings.NewReader(body))
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s %s: status %d (body %s)", method, target, rec.Code, rec.Body)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("%s %s: Content-Type %q", method, target, ct)
			}
			if i == 0 {
				first = rec.Body.Bytes()
			} else if !bytes.Equal(rec.Body.Bytes(), first) {
				t.Fatalf("%s %s: second answer differs:\nfirst:  %s\nsecond: %s", method, target, first, rec.Body)
			}
			sum.Write(rec.Body.Bytes())
		}
		return first
	}

	do("GET", "/v1/grid", "")
	var page struct {
		NextCursor string `json:"next_cursor"`
	}
	if err := json.Unmarshal(do("GET", "/v1/cells?limit=3", ""), &page); err != nil || page.NextCursor == "" {
		t.Fatalf("first cells page: next_cursor %q, err %v", page.NextCursor, err)
	}
	do("GET", "/v1/cells?limit=3&cursor="+page.NextCursor, "")
	do("GET", "/v1/predict?bench=fft&size=tiny&device=gtx1080", "")
	do("GET", "/v1/predict?bench=fft&size=tiny&device=k20m", "")
	for _, policy := range []string{"heft", "energy"} {
		do("POST", "/v1/schedule",
			`{"tasks":[{"benchmark":"fft","size":"tiny","count":2},{"benchmark":"crc","size":"tiny"}],"policy":"`+policy+`"}`)
	}

	const want = "d04912bb5cf32bcc64e7874e32dcc8b9278428070f67b182eec65ee7f7db5811"
	if got := hex.EncodeToString(sum.Sum(nil)); got != want {
		t.Fatalf("read-route bodies digest %s, want %s", got, want)
	}
}

func TestPredictMeasuredAndUnmeasured(t *testing.T) {
	srv, g := newTestServer(t)

	// A measured cell: prediction plus the stored actual.
	body := get(t, srv, "/v1/predict?bench=fft&size=tiny&device=gtx1080", http.StatusOK)
	if body["measured"] != true {
		t.Fatalf("measured = %v", body["measured"])
	}
	pred := body["predicted_ns"].(float64)
	actual := body["actual_ns"].(float64)
	if pred <= 0 || actual <= 0 {
		t.Fatalf("pred %v actual %v", pred, actual)
	}
	want := g.Find("fft", "tiny", "gtx1080").Kernel.Median
	if actual != want {
		t.Fatalf("actual_ns %v, want stored median %v", actual, want)
	}

	// A device the benchmark never ran on: catalogue spec + stored AIWC
	// profiles still yield a prediction.
	body = get(t, srv, "/v1/predict?bench=fft&size=tiny&device=k20m", http.StatusOK)
	if body["measured"] != false {
		t.Fatalf("measured = %v for unmeasured device", body["measured"])
	}
	if body["predicted_ns"].(float64) <= 0 {
		t.Fatalf("predicted_ns %v", body["predicted_ns"])
	}
	if _, has := body["actual_ns"]; has {
		t.Fatal("actual_ns present for unmeasured cell")
	}

	// Unknown workload or device → 404 with a useful message.
	get(t, srv, "/v1/predict?bench=lud&size=tiny&device=gtx1080", http.StatusNotFound)
	get(t, srv, "/v1/predict?bench=fft&size=tiny&device=gtx1081", http.StatusNotFound)
	// Missing parameters → 400.
	get(t, srv, "/v1/predict?bench=fft", http.StatusBadRequest)

	// An empty store knows no row: 404, like any unmeasured workload.
	empty, err := newServer(openStore(t), predict.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	get(t, empty, "/v1/predict?bench=fft&size=tiny&device=gtx1080", http.StatusNotFound)
}

// postJob submits a job and returns its ID.
func postJob(t *testing.T, srv *server, body string, wantCode int) string {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != wantCode {
		t.Fatalf("POST /v1/jobs: status %d (body %s), want %d", rec.Code, rec.Body, wantCode)
	}
	var resp map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("POST /v1/jobs: invalid JSON %q: %v", rec.Body, err)
	}
	id, _ := resp["id"].(string)
	return id
}

// waitJob polls the status endpoint until the job leaves the running state.
func waitJob(t *testing.T, srv *server, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		body := get(t, srv, "/v1/jobs/"+id, http.StatusOK)
		if body["state"] != string(jobRunning) {
			return body
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s still running after 30s", id)
	return nil
}

// TestJobSweepRoundTrip is the async acceptance path: a job extends the
// store with a new device, SSE delivers its per-cell events live, and the
// resulting /v1/grid is byte-for-byte what a synchronous sweep of the same
// selection serves. /v1/grid is read once before the job, so a body kept
// from the first generation would fail the comparison.
func TestJobSweepRoundTrip(t *testing.T) {
	srv, _ := newTestServer(t) // crc,fft × tiny × i7-6700k,gtx1080 = 4 cells
	if body := get(t, srv, "/v1/grid", http.StatusOK); body["count"] != float64(4) {
		t.Fatalf("grid count before the job %v, want 4", body["count"])
	}

	// A live SSE follower attached before the job exists would 404; attach
	// right after submit, while the job runs, and follow it to the end.
	id := postJob(t, srv,
		`{"benchmarks":["crc","fft"],"sizes":["tiny"],"devices":["i7-6700k","gtx1080","k20m"],"samples":6}`,
		http.StatusAccepted)
	if id == "" {
		t.Fatal("job submission returned no id")
	}

	ts := httptest.NewServer(srv)
	defer ts.Close()
	sse, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sse.Body.Close()
	if got := sse.Header.Get("Content-Type"); got != "text/event-stream" {
		t.Fatalf("SSE content type %q", got)
	}
	var kinds []string
	var lastData string
	scanner := bufio.NewScanner(sse.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if strings.HasPrefix(line, "event: ") {
			kinds = append(kinds, strings.TrimPrefix(line, "event: "))
		}
		if strings.HasPrefix(line, "data: ") {
			lastData = strings.TrimPrefix(line, "data: ")
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	// The stream must end by itself after the terminal event.
	if len(kinds) == 0 || kinds[len(kinds)-1] != "grid_done" {
		t.Fatalf("SSE kinds %v: want a trailing grid_done", kinds)
	}
	cellEvents := 0
	for _, k := range kinds {
		if k == "cell_done" || k == "store_hit" {
			cellEvents++
		}
	}
	if cellEvents != 6 {
		t.Fatalf("%d completion events over SSE, want 6", cellEvents)
	}
	var terminal map[string]any
	if err := json.Unmarshal([]byte(lastData), &terminal); err != nil {
		t.Fatalf("terminal SSE data %q: %v", lastData, err)
	}
	if terminal["state"] != string(jobDone) {
		t.Fatalf("terminal event state %v", terminal["state"])
	}
	// 4 cells pre-existed (store hits), k20m's 2 were measured.
	if terminal["store_hits"].(float64) != 4 || terminal["store_misses"].(float64) != 2 {
		t.Fatalf("terminal hits/misses %v/%v, want 4/2", terminal["store_hits"], terminal["store_misses"])
	}

	status := waitJob(t, srv, id)
	if status["state"] != string(jobDone) {
		t.Fatalf("job state %v, want done: %v", status["state"], status)
	}
	if status["done"].(float64) != 6 || status["total"].(float64) != 6 {
		t.Fatalf("job progress %v/%v, want 6/6", status["done"], status["total"])
	}

	// The query snapshot was reloaded: 6 cells served.
	if body := get(t, srv, "/v1/status", http.StatusOK); int(body["cells"].(float64)) != 6 {
		t.Fatalf("cells after job %v, want 6", body["cells"])
	}

	// Byte-for-byte: a synchronous sweep of the same selection into a
	// fresh store serves an identical /v1/grid.
	st2 := openStore(t)
	opt := harness.DefaultOptions()
	opt.Samples = 6
	if _, err := harness.RunGrid(context.Background(), suite.New(), harness.GridSpec{
		Benchmarks: []string{"crc", "fft"},
		Sizes:      []string{"tiny"},
		Devices:    []string{"i7-6700k", "gtx1080", "k20m"},
		Options:    opt,
		Workers:    2,
		Store:      st2,
	}); err != nil {
		t.Fatal(err)
	}
	syncSrv, err := newServer(st2, predict.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	rawAsync := getRaw(t, srv, "/v1/grid")
	rawSync := getRaw(t, syncSrv, "/v1/grid")
	if rawAsync != rawSync {
		t.Fatalf("async and sync /v1/grid differ:\nasync: %s\nsync:  %s", rawAsync, rawSync)
	}
}

// TestReadRoutesAcrossReload serves /v1/grid, /v1/predict and /v1/schedule
// from 4 goroutines while a job reloads the snapshot under them. Every
// answer is a 200 from one generation or the other, and once the job is
// done every route answers from the new one.
func TestReadRoutesAcrossReload(t *testing.T) {
	srv, _ := newTestServer(t)
	reqs := []struct{ method, target, body string }{
		{"GET", "/v1/grid", ""},
		{"GET", "/v1/predict?bench=crc&size=tiny&device=k20m", ""},
		{"POST", "/v1/schedule", `{"tasks":[{"benchmark":"fft","size":"tiny","count":2}],"devices":["k20m","gtx1080"]}`},
	}
	serve := func(i int) (int, map[string]any) {
		r := reqs[i%len(reqs)]
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(r.method, r.target, strings.NewReader(r.body)))
		var body map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			body = map[string]any{"error": err.Error()}
		}
		return rec.Code, body
	}

	id := postJob(t, srv, `{"benchmarks":["crc","fft"],"sizes":["tiny"],"devices":["k20m"],"samples":6}`, http.StatusAccepted)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(stop) // also when waitJob or a check below fails
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				code, body := serve(i)
				if code != http.StatusOK {
					t.Errorf("%s %s: status %d: %v", reqs[i%len(reqs)].method, reqs[i%len(reqs)].target, code, body)
					return
				}
				if n, ok := body["count"]; ok && n != float64(len(body["cells"].([]any))) {
					t.Errorf("/v1/grid count %v beside %d cells", n, len(body["cells"].([]any)))
					return
				}
			}
		}()
	}
	waitJob(t, srv, id)

	for i, want := range []string{"count", "training_cells", "training_cells"} {
		if code, body := serve(i); code != http.StatusOK || body[want] != float64(6) {
			t.Fatalf("%s after the job: status %d, %s %v; want 6", reqs[i].target, code, want, body[want])
		}
	}
}

func getRaw(t *testing.T, srv *server, url string) string {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, rec.Code)
	}
	return rec.Body.String()
}

// TestJobCancel cancels a large job mid-flight: the job settles in a
// terminal state, the store agrees exactly with the reported progress, and
// the query snapshot serves the completed cells.
func TestJobCancel(t *testing.T) {
	st := openStore(t)
	srv, err := newServer(st, predict.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	// The full suite across all sizes on two devices: large enough that
	// the DELETE lands long before completion.
	id := postJob(t, srv, `{"devices":["i7-6700k","gtx1080"],"samples":6}`, http.StatusAccepted)
	req := httptest.NewRequest("DELETE", "/v1/jobs/"+id, nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("DELETE: status %d", rec.Code)
	}

	status := waitJob(t, srv, id)
	state := status["state"].(string)
	if state != string(jobCancelled) && state != string(jobDone) {
		t.Fatalf("cancelled job settled as %q", state)
	}
	done := int(status["done"].(float64))
	if state == string(jobCancelled) && done >= int(status["total"].(float64)) {
		t.Fatal("cancelled job claims full completion")
	}
	// Lossless shutdown: every completed cell is in the store, and the
	// reloaded snapshot serves exactly those.
	checkJobStore(t, srv, st, status)
	if body := get(t, srv, "/v1/status", http.StatusOK); int(body["cells"].(float64)) != done {
		t.Fatalf("snapshot serves %v cells, want %d", body["cells"], done)
	}
}

// failedStoreJob runs a job that fails on a store write after one store
// hit. crc/tiny on i7-6700k is swept into a store whose handle is then
// closed; a second handle, with no segment open yet, is served, and the
// store directory is removed. The job's k20m cell is a miss whose Put
// must create a segment in the missing directory, which fails with
// ENOENT (for root too). It returns the job's final status and the data
// of its terminal SSE frame.
func failedStoreJob(t *testing.T) (srv *server, status, terminal map[string]any) {
	t.Helper()
	dir := t.TempDir()
	seed, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opt := harness.DefaultOptions()
	opt.Samples = 6
	if _, err := harness.RunGrid(context.Background(), suite.New(), harness.GridSpec{
		Benchmarks: []string{"crc"},
		Sizes:      []string{"tiny"},
		Devices:    []string{"i7-6700k"},
		Options:    opt,
		Workers:    1,
		Store:      seed,
	}); err != nil {
		t.Fatal(err)
	}
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	cfg := predict.DefaultConfig()
	cfg.Trees = 20
	if srv, err = newServer(st, cfg); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}

	id := postJob(t, srv,
		`{"benchmarks":["crc"],"sizes":["tiny"],"devices":["i7-6700k","k20m"],"workers":1,"samples":6}`,
		http.StatusAccepted)
	status = waitJob(t, srv, id)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := dialSSE(t, ts.URL, id, "")
	defer c.resp.Body.Close()
	c.readUntil(t, "event: grid_done")
	data := strings.TrimPrefix(c.readUntil(t, "data: "), "data: ")
	if err := json.Unmarshal([]byte(data), &terminal); err != nil {
		t.Fatalf("terminal SSE data %q: %v", data, err)
	}
	return srv, status, terminal
}

// TestFailedJobCounters: a job that fails on a store error reports the
// cells that completed before the failure — in its status and in its
// terminal SSE frame alike — and the snapshot still serves the store.
func TestFailedJobCounters(t *testing.T) {
	srv, status, terminal := failedStoreJob(t)
	if status["state"] != string(jobFailed) {
		t.Fatalf("job state %v, want failed: %v", status["state"], status)
	}
	if msg, _ := status["error"].(string); !strings.Contains(msg, "store: ") {
		t.Fatalf("job error %q, want a store error", msg)
	}
	if terminal["state"] != string(jobFailed) {
		t.Fatalf("terminal frame state %v, want failed", terminal["state"])
	}
	for _, report := range []struct {
		name string
		body map[string]any
	}{{"status", status}, {"terminal frame", terminal}} {
		for key, want := range map[string]float64{"done": 1, "total": 2, "store_hits": 1, "store_misses": 0} {
			if got := report.body[key]; got != want {
				t.Errorf("%s %s = %v, want %v", report.name, key, got, want)
			}
		}
	}
	if body := get(t, srv, "/v1/status", http.StatusOK); body["cells"] != float64(1) {
		t.Fatalf("/v1/status serves %v cells, want 1", body["cells"])
	}
}

// TestFailedJobTerminalElapsed: a failed job's terminal frame reports the
// run's wall-clock time, as a finished or cancelled job's does.
func TestFailedJobTerminalElapsed(t *testing.T) {
	_, _, terminal := failedStoreJob(t)
	if ms, _ := terminal["elapsed_ms"].(float64); ms <= 0 {
		t.Fatalf("terminal frame elapsed_ms %v, want > 0", terminal["elapsed_ms"])
	}
}

// TestJobValidationAndLookups: bad selections fail at submit time with no
// job registered; unknown job IDs 404.
func TestJobValidationAndLookups(t *testing.T) {
	srv, _ := newTestServer(t)
	postJob(t, srv, `{"benchmarks":["nosuch"]}`, http.StatusBadRequest)
	postJob(t, srv, `{not json`, http.StatusBadRequest)
	if body := get(t, srv, "/v1/jobs", http.StatusOK); int(body["count"].(float64)) != 0 {
		t.Fatalf("rejected submissions registered jobs: %v", body)
	}
	get(t, srv, "/v1/jobs/job-999999", http.StatusNotFound)

	req := httptest.NewRequest("DELETE", "/v1/jobs/job-999999", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("DELETE unknown job: status %d", rec.Code)
	}
}

// TestPostBodyLimit: a POST body past maxBodyBytes is refused with a 413
// JSON error on both POST routes, and registers no job.
func TestPostBodyLimit(t *testing.T) {
	srv, _ := newTestServer(t)
	huge := `{"benchmarks":["` + strings.Repeat("a", maxBodyBytes) + `"]}`
	postJob(t, srv, huge, http.StatusRequestEntityTooLarge)
	if body := get(t, srv, "/v1/jobs", http.StatusOK); int(body["count"].(float64)) != 0 {
		t.Fatalf("an oversized submission registered a job: %v", body)
	}
	resp := postSchedule(t, srv, `{"tasks":[{"benchmark":"`+strings.Repeat("a", maxBodyBytes)+`"}]}`,
		http.StatusRequestEntityTooLarge)
	if _, ok := resp["error"].(string); !ok {
		t.Fatalf("413 without a JSON error: %v", resp)
	}
	// A body just under the limit still decodes (and fails validation).
	postJob(t, srv, `{"benchmarks":["`+strings.Repeat("a", maxBodyBytes-64)+`"]}`, http.StatusBadRequest)
}

// TestJobSamplesBound: a job asking for more samples per cell than
// maxJobSamples is refused with a 400 and registers no job.
func TestJobSamplesBound(t *testing.T) {
	srv, _ := newTestServer(t)
	postJob(t, srv, fmt.Sprintf(`{"benchmarks":["crc"],"sizes":["tiny"],"devices":["k20m"],"samples":%d}`,
		maxJobSamples+1), http.StatusBadRequest)
	if body := get(t, srv, "/v1/jobs", http.StatusOK); int(body["count"].(float64)) != 0 {
		t.Fatalf("a job over the samples bound was registered: %v", body)
	}
}

// TestJobAttemptsBound: a job asking for more per-cell attempts than
// maxJobAttempts — under a chaos plan failing every attempt, each one
// would log a cell_retry event — is refused with a 400 and registers no
// job.
func TestJobAttemptsBound(t *testing.T) {
	srv, _ := newTestServer(t)
	postJob(t, srv, fmt.Sprintf(`{"benchmarks":["crc"],"sizes":["tiny"],"devices":["k20m"],"retries":%d,`+
		`"chaos":{"transient_rate":1}}`, maxJobAttempts+1), http.StatusBadRequest)
	if body := get(t, srv, "/v1/jobs", http.StatusOK); int(body["count"].(float64)) != 0 {
		t.Fatalf("a job over the attempts bound was registered: %v", body)
	}
}

// TestJobBoundsAccepted: a job at both bounds is accepted, and with every
// attempt failing its event log reaches exactly the cap the bounds imply:
// cells × (attempts + 1) + 1, with no device quarantined.
func TestJobBoundsAccepted(t *testing.T) {
	srv, _ := newTestServer(t)
	id := postJob(t, srv, fmt.Sprintf(`{"benchmarks":["crc","fft"],"sizes":["tiny"],"devices":["k20m"],`+
		`"samples":%d,"retries":%d,"chaos":{"seed":3,"transient_rate":1}}`, maxJobSamples, maxJobAttempts),
		http.StatusAccepted)
	status := waitJob(t, srv, id)
	if status["failed"] != float64(2) {
		t.Fatalf("failed %v, want both cells", status["failed"])
	}
	if want := 2*(maxJobAttempts+1) + 1; status["events"] != float64(want) {
		t.Fatalf("event log holds %v events, want %d", status["events"], want)
	}
}

// TestHTTPServerReadHeaderTimeout: a client that never finishes its
// request headers cannot hold a connection open indefinitely.
func TestHTTPServerReadHeaderTimeout(t *testing.T) {
	hs := newHTTPServer(":0", http.NotFoundHandler())
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.ReadHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", hs.ReadHeaderTimeout, readHeaderTimeout)
	}
	// No whole-request or write deadline: SSE streams last as long as
	// their job.
	if hs.ReadTimeout != 0 || hs.WriteTimeout != 0 {
		t.Fatalf("ReadTimeout %v / WriteTimeout %v would cut SSE streams", hs.ReadTimeout, hs.WriteTimeout)
	}
}

// TestHTTPServerIdleTimeout: an idle keep-alive connection is closed.
func TestHTTPServerIdleTimeout(t *testing.T) {
	hs := newHTTPServer(":0", http.NotFoundHandler())
	if hs.IdleTimeout != idleTimeout || hs.IdleTimeout <= 0 {
		t.Fatalf("IdleTimeout = %v, want %v", hs.IdleTimeout, idleTimeout)
	}
}

// TestShutdownCancelsJobs: shutdownJobs() drives running jobs to a
// terminal state and new submissions are rejected while draining.
func TestShutdownCancelsJobs(t *testing.T) {
	st := openStore(t)
	srv, err := newServer(st, predict.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	id := postJob(t, srv, `{"devices":["i7-6700k","gtx1080"],"samples":6}`, http.StatusAccepted)

	srv.shutdownJobs() // blocks until the job settles

	body := get(t, srv, "/v1/jobs/"+id, http.StatusOK)
	if body["state"] == string(jobRunning) {
		t.Fatalf("job still running after shutdownJobs: %v", body)
	}
	// Shutdown lost no cells.
	checkJobStore(t, srv, st, body)
	postJob(t, srv, `{"benchmarks":["crc"],"sizes":["tiny"],"devices":["i7-6700k"]}`, http.StatusServiceUnavailable)
}

// postSchedule POSTs a /v1/schedule body and decodes the response.
func postSchedule(t *testing.T, srv *server, body string, wantCode int) map[string]any {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/schedule", strings.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != wantCode {
		t.Fatalf("POST /v1/schedule: status %d (body %s), want %d", rec.Code, rec.Body, wantCode)
	}
	var resp map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("POST /v1/schedule: invalid JSON %q: %v", rec.Body, err)
	}
	return resp
}

// TestScheduleEndpoint: a workload over a fleet wider than the store's
// measurements schedules with predicted slots flagged; after a job measures
// the missing device the same request resolves fully measured — the
// predict-only versus after-measurement round trip of the CI store-smoke.
func TestScheduleEndpoint(t *testing.T) {
	srv, _ := newTestServer(t) // crc,fft × tiny × i7-6700k,gtx1080 measured
	reqBody := `{"tasks":[{"benchmark":"fft","size":"tiny","count":2},{"benchmark":"crc","size":"tiny"}],
		"devices":["i7-6700k","gtx1080","k20m"],"policy":"heft"}`

	body := postSchedule(t, srv, reqBody, http.StatusOK)
	if body["policy"] != "heft" || int(body["tasks"].(float64)) != 3 {
		t.Fatalf("schedule header wrong: %v", body)
	}
	if body["makespan_ms"].(float64) <= 0 {
		t.Fatalf("non-positive makespan: %v", body["makespan_ms"])
	}
	if len(body["slots"].([]any)) != 3 {
		t.Fatalf("%d slots, want 3", len(body["slots"].([]any)))
	}
	measuredBefore := int(body["measured"].(float64))
	if int(body["predicted"].(float64))+measuredBefore != 3 {
		t.Fatalf("source counts do not add up: %v", body)
	}

	// Measure k20m, then every (task, device) cell of the fleet is stored:
	// the same schedule request must resolve with zero predictions.
	id := postJob(t, srv, `{"benchmarks":["crc","fft"],"sizes":["tiny"],"devices":["k20m"],"samples":6}`, http.StatusAccepted)
	waitJob(t, srv, id)
	body = postSchedule(t, srv, reqBody, http.StatusOK)
	if int(body["predicted"].(float64)) != 0 || int(body["measured"].(float64)) != 3 {
		t.Fatalf("after measurement: %v predicted / %v measured, want 0/3", body["predicted"], body["measured"])
	}
	if int(body["training_cells"].(float64)) != 6 {
		t.Fatalf("training_cells %v, want 6 (cost model not regenerated)", body["training_cells"])
	}
}

// TestScheduleEnergyBudget: the energy policy honours an explicit makespan
// budget and reports the energy split.
func TestScheduleEnergyBudget(t *testing.T) {
	srv, _ := newTestServer(t)
	body := postSchedule(t, srv,
		`{"tasks":[{"benchmark":"crc","size":"tiny","count":4}],"devices":["i7-6700k","gtx1080"],
		  "policy":"energy","makespan_budget_ms":10000}`,
		http.StatusOK)
	if body["policy"] != "energy" {
		t.Fatalf("policy %v", body["policy"])
	}
	if body["total_energy_j"].(float64) <= 0 {
		t.Fatalf("energy %v", body["total_energy_j"])
	}
}

// TestScheduleValidation is the regression test for the error convention:
// unknown policies list every valid one sorted; malformed workloads name
// the valid benchmarks; unknown devices name the catalogue; rows absent
// from the store 404.
func TestScheduleValidation(t *testing.T) {
	srv, _ := newTestServer(t)

	resp := postSchedule(t, srv,
		`{"tasks":[{"benchmark":"crc","size":"tiny"}],"policy":"quantum"}`, http.StatusBadRequest)
	msg := resp["error"].(string)
	last := -1
	for _, name := range []string{"energy", "fastest-device", "greedy", "heft", "roundrobin"} {
		i := strings.Index(msg, name)
		if i < 0 {
			t.Fatalf("policy error %q does not mention %q", msg, name)
		}
		if i < last {
			t.Fatalf("policy error %q lists policies out of order", msg)
		}
		last = i
	}

	resp = postSchedule(t, srv, `{"tasks":[{"benchmark":"nosuch","size":"tiny"}]}`, http.StatusBadRequest)
	for _, want := range []string{"nosuch", "crc", "fft"} {
		if !strings.Contains(resp["error"].(string), want) {
			t.Fatalf("workload error %q does not mention %q", resp["error"], want)
		}
	}

	resp = postSchedule(t, srv, `{"tasks":[{"benchmark":"crc","size":"tiny"}],"devices":["gtx1081"]}`, http.StatusBadRequest)
	if !strings.Contains(resp["error"].(string), "gtx1080") {
		t.Fatalf("device error %q does not name the catalogue", resp["error"])
	}

	postSchedule(t, srv, `{"tasks":[]}`, http.StatusBadRequest)
	postSchedule(t, srv, `{not json`, http.StatusBadRequest)
	postSchedule(t, srv, `{"tasks":[{"benchmark":"crc","size":"tiny"}],"polcy":"heft"}`, http.StatusBadRequest)

	// srad/tiny is a valid workload but has no stored cells on any device.
	postSchedule(t, srv, `{"tasks":[{"benchmark":"srad","size":"tiny"}]}`, http.StatusNotFound)

	// An empty store holds none of the workload's rows: 404 naming each,
	// sorted, as for unmeasured rows on any store.
	empty, err := newServer(openStore(t), predict.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	resp = postSchedule(t, empty, `{"tasks":[{"benchmark":"fft","size":"tiny"},{"benchmark":"crc","size":"small"},{"benchmark":"fft","size":"tiny"}]}`,
		http.StatusNotFound)
	if want := "no stored measurement of crc/small, fft/tiny on any device"; !strings.Contains(resp["error"].(string), want) {
		t.Fatalf("empty-store error %q, want it to contain %q", resp["error"], want)
	}
}

// TestPredictRetrainsAfterJob: the forest is invalidated when a job adds
// cells — training_cells must track the new snapshot.
func TestPredictRetrainsAfterJob(t *testing.T) {
	srv, _ := newTestServer(t)
	body := get(t, srv, "/v1/predict?bench=fft&size=tiny&device=gtx1080", http.StatusOK)
	if int(body["training_cells"].(float64)) != 4 {
		t.Fatalf("training_cells %v, want 4", body["training_cells"])
	}
	id := postJob(t, srv, `{"benchmarks":["crc","fft"],"sizes":["tiny"],"devices":["k20m"],"samples":6}`, http.StatusAccepted)
	waitJob(t, srv, id)
	body = get(t, srv, "/v1/predict?bench=fft&size=tiny&device=k20m", http.StatusOK)
	if body["measured"] != true {
		t.Fatalf("k20m cell not measured after job: %v", body)
	}
	if int(body["training_cells"].(float64)) != 6 {
		t.Fatalf("training_cells after job %v, want 6 (forest not retrained)", body["training_cells"])
	}
}

// TestMetricsSlotcacheAgreesWithEvents is the acceptance check for the
// zero-copy read path's observability: the slotcache_* counters on /metrics
// move in lockstep with the job event stream. The arithmetic is exact —
// the startup snapshot decodes each of the 4 cells once (4 misses), a job
// over the same selection store-hits all 4 through the slot cache and its
// post-job reload hits them again, so hits = 2 × the job's store_hits and
// no evictions ever fire (nothing was overwritten).
func TestMetricsSlotcacheAgreesWithEvents(t *testing.T) {
	srv, g := newTestServer(t)

	metrics := func() map[string]int {
		raw := getRaw(t, srv, "/metrics")
		out := map[string]int{}
		for _, line := range strings.Split(raw, "\n") {
			var name string
			var v int
			if n, _ := fmt.Sscanf(line, "slotcache_%s %d", &name, &v); n == 2 {
				out["slotcache_"+name] = v
			}
		}
		return out
	}

	m := metrics()
	if m["slotcache_misses_total"] != g.Cells() || m["slotcache_hits_total"] != 0 {
		t.Fatalf("startup metrics %v, want %d misses / 0 hits", m, g.Cells())
	}

	id := postJob(t, srv,
		`{"benchmarks":["crc","fft"],"sizes":["tiny"],"devices":["i7-6700k","gtx1080"],"samples":6}`,
		http.StatusAccepted)
	status := waitJob(t, srv, id)
	if status["state"] != string(jobDone) {
		t.Fatalf("job state %v", status["state"])
	}
	hits := int(status["store_hits"].(float64))
	if hits != g.Cells() {
		t.Fatalf("job store_hits %d, want %d", hits, g.Cells())
	}

	m = metrics()
	if m["slotcache_hits_total"] != 2*hits {
		t.Fatalf("slotcache_hits_total %d, want %d (job %d + reload %d)",
			m["slotcache_hits_total"], 2*hits, hits, hits)
	}
	if m["slotcache_misses_total"] != g.Cells() {
		t.Fatalf("slotcache_misses_total %d changed after an all-hit job, want %d",
			m["slotcache_misses_total"], g.Cells())
	}
	if m["slotcache_evictions_total"] != 0 {
		t.Fatalf("slotcache_evictions_total %d with nothing overwritten", m["slotcache_evictions_total"])
	}
}
