package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"opendwarfs/internal/harness"
	"opendwarfs/internal/predict"
	"opendwarfs/internal/sched"
	"opendwarfs/internal/sim"
	"opendwarfs/internal/store"
	"opendwarfs/internal/suite"
)

// routeHeldOut are the catalogue devices the route fixture never measured;
// the predict and schedule requests ask about them.
var routeHeldOut = map[string]bool{"rx480": true, "knl-7210": true}

// routeFixture serves the store serve_mixed's phase A reads: every row of
// the suite on the 13 other catalogue devices, seed 2, default options
// (533 cells). It is built once per process. The store is closed and its
// directory removed once the server has loaded its snapshot: the read
// routes never touch the store.
var routeFixture = sync.OnceValues(func() (*server, error) {
	dir, err := os.MkdirTemp("", "dwarfserve-route-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var devices []string
	for _, d := range sim.Devices() {
		if !routeHeldOut[d.ID] {
			devices = append(devices, d.ID)
		}
	}
	opt := harness.DefaultOptions()
	opt.Seed = 2
	if _, err := harness.RunGrid(context.Background(), suite.New(), harness.GridSpec{
		Devices: devices,
		Options: opt,
		Workers: 2,
		Store:   st,
	}); err != nil {
		return nil, err
	}
	return newServer(st, predict.DefaultConfig())
})

// BenchmarkRoute times one request through the middleware on each read
// route phase A rotates through. The schedule request is phase A's: the
// grid's first, middle and last rows under heft over the whole catalogue.
// A first untimed request per route builds what the route builds lazily.
// schedule_after_reload times what a job's reload leaves to the next
// schedule: each iteration publishes a fresh snapshot of the grid and
// plans the same rows over the measured devices only, which must train
// no forest.
func BenchmarkRoute(b *testing.B) {
	srv, err := routeFixture()
	if err != nil {
		b.Fatal(err)
	}
	var rows []sched.TaskSpec
	seen := map[string]bool{}
	for _, m := range srv.snap.Load().grid.Measurements {
		if !seen[m.Benchmark+"/"+m.Size] {
			seen[m.Benchmark+"/"+m.Size] = true
			rows = append(rows, sched.TaskSpec{Benchmark: m.Benchmark, Size: m.Size})
		}
	}
	mid := rows[len(rows)/2]
	schedBody, err := json.Marshal(map[string]any{
		"tasks":  []sched.TaskSpec{rows[0], mid, rows[len(rows)-1]},
		"policy": "heft",
	})
	if err != nil {
		b.Fatal(err)
	}
	predictURL := "/v1/predict?bench=" + mid.Benchmark + "&size=" + mid.Size + "&device="
	_, _, measured := gridAxes(srv.snap.Load().grid)
	reloadBody, err := json.Marshal(map[string]any{
		"tasks":   []sched.TaskSpec{rows[0], mid, rows[len(rows)-1]},
		"policy":  "heft",
		"devices": measured,
	})
	if err != nil {
		b.Fatal(err)
	}

	for _, r := range []struct {
		name, method string
		targets      []string
		body         string
	}{
		{"grid", "GET", []string{"/v1/grid"}, ""},
		{"cells", "GET", []string{"/v1/cells?bench=" + mid.Benchmark + "&limit=50"}, ""},
		{"predict", "GET", []string{predictURL + "rx480", predictURL + "knl-7210"}, ""},
		{"schedule", "POST", []string{"/v1/schedule"}, string(schedBody)},
	} {
		b.Run(r.name, func(b *testing.B) {
			serve := func(i int) {
				rec := httptest.NewRecorder()
				target := r.targets[i%len(r.targets)]
				srv.ServeHTTP(rec, httptest.NewRequest(r.method, target, strings.NewReader(r.body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("%s %s: status %d: %s", r.method, target, rec.Code, rec.Body)
				}
			}
			serve(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve(i)
			}
		})
	}

	b.Run("schedule_after_reload", func(b *testing.B) {
		grid := srv.snap.Load().grid
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			srv.setGrid(grid)
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/schedule", strings.NewReader(string(reloadBody))))
			if rec.Code != http.StatusOK {
				b.Fatalf("POST /v1/schedule after a reload: status %d: %s", rec.Code, rec.Body)
			}
		}
	})
}
