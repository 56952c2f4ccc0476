package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"

	"opendwarfs/internal/harness"
	"opendwarfs/internal/store"
	"opendwarfs/internal/suite"
)

// binDir holds the benchmark and dwarfserve binaries TestMain builds; the
// benchmark re-executes itself for every rep and finds dwarfserve beside it.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "bench-bin-")
	if err != nil {
		panic(err)
	}
	binDir = dir
	for _, args := range [][]string{
		{"build", "-o", filepath.Join(dir, "bench"), "."},
		{"build", "-o", filepath.Join(dir, "dwarfserve"), "opendwarfs/cmd/dwarfserve"},
	} {
		cmd := exec.Command("go", args...)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			os.RemoveAll(dir)
			panic(err)
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

type declarations struct {
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func readDeclarations(t *testing.T) ([]byte, declarations) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declarations
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return raw, d
}

// TestQuickWorkloads runs every workload untraced and traced on the quick
// selection through the real command, and holds the output to the
// benchmark's contract: every declared metric with its unit, every
// operation correct, a loadable Chrome trace.
func TestQuickWorkloads(t *testing.T) {
	raw, decl := readDeclarations(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	traceDir := filepath.Join(dir, "trace")
	nonZero := map[string]bool{}
	for _, w := range []string{coldSweep, warmResweep, addDevices, serveMixed} {
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(filepath.Join(binDir, "bench"), "--workload", w, "--seed", "3",
				"--seconds", "1", "--trace", trace, "--trace-dir", traceDir, "--quick")
			cmd.Dir = dir
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			stdout, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s trace=%s: %v\n%s", w, trace, err, stderr.Bytes())
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			if len(lines) < 2 {
				t.Fatalf("%s trace=%s: want a detail line and a result line, got %q", w, trace, stdout)
			}
			var detail struct {
				Provenance map[string]any `json:"provenance"`
			}
			if err := json.Unmarshal(lines[len(lines)-2], &detail); err != nil {
				t.Fatalf("%s: detail line: %v", w, err)
			}
			for _, k := range []string{"nproc", "gomaxprocs", "cpu_model", "go_version", "git_revision", "git_dirty"} {
				if _, ok := detail.Provenance[k]; !ok {
					t.Errorf("%s: provenance lacks %s", w, k)
				}
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(lines[len(lines)-1], &keys); err != nil || len(keys) != 4 {
				t.Fatalf("%s: result line %s: want exactly correct, attempted, failed, metrics (%v)", w, lines[len(lines)-1], err)
			}
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d\n%s", w, trace, res.Correct, res.Attempted, res.Failed, stderr.Bytes())
			}
			want := decl.EndToEnd
			if trace == "1" {
				want = decl.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, %d declared", w, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%s: %s missing", w, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: %s unit %s, declared %s", w, d.Name, m.Unit, d.Unit)
				case trace == "0" && !(m.Value > 0):
					t.Errorf("%s: end-to-end %s = %v, want > 0", w, d.Name, m.Value)
				}
				if m.Value != 0 {
					nonZero[d.Name] = true
				}
			}
			if trace == "1" {
				checkChromeTrace(t, filepath.Join(traceDir, w+".trace.json"))
			}
		}
	}
	// A per-layer metric may read 0 on a workload that skips its layer,
	// but one that is 0 everywhere is never measured.
	for _, d := range decl.PerLayer {
		if !nonZero[d.Name] {
			t.Errorf("per-layer %s is 0 on every workload", d.Name)
		}
	}
}

func checkChromeTrace(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("%s: not a Chrome trace with events (%v)", path, err)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Dur < 0 {
			t.Fatalf("%s: malformed event %+v", path, ev)
		}
	}
}

// TestLayerSumCatchesOverlap feeds checkLayerSum the spans of a 100 ms grid
// with two 60 ms cells. Run one after the other they could not fit, so they
// overlapped, as cells traced at two workers do: the check must fail. Two
// 45 ms cells fit and must pass.
func TestLayerSumCatchesOverlap(t *testing.T) {
	for _, tc := range []struct {
		cellMs int
		ok     bool
	}{{45, true}, {60, false}} {
		path := filepath.Join(t.TempDir(), "spans.jsonl")
		spans := fmt.Sprintf(`{"id":1,"name":"harness.grid","dur_ns":100000000}
{"id":2,"parent":1,"name":"harness.cell","dur_ns":%[1]d}
{"id":3,"parent":1,"name":"harness.cell","dur_ns":%[1]d}
`, tc.cellMs*1e6)
		if err := os.WriteFile(path, []byte(spans), 0o644); err != nil {
			t.Fatal(err)
		}
		self, err := selfTimes(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := layerSet{}.fromSpans(self, &timedStore{})
		if err := checkLayerSum(repOut{GridS: 0.1, LayerSumS: sum}); (err == nil) != tc.ok {
			t.Errorf("two %d ms cells in a 100 ms grid: layer sum %.3f s, check error %v", tc.cellMs, sum, err)
		}
	}
}

// TestCorruptFixtureFails changes one kernel-time sample of one fixture
// record, keeping it decodable: the warm re-sweep must count the rep as a
// failed operation rather than pass it.
func TestCorruptFixtureFails(t *testing.T) {
	work := t.TempDir()
	cfg := config{
		workload: warmResweep,
		seed:     4,
		quick:    true,
		workers:  2,
		work:     work,
		self:     filepath.Join(binDir, "bench"),
		sel: selection{
			Benchmarks: []string{"crc", "kmeans"},
			Sizes:      []string{"tiny", "small"},
			Devices:    []string{"i7-6700k", "rx480", "knl-7210"},
		},
	}
	ctx := context.Background()
	ref, err := buildReference(ctx, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(ref.fixture, "seg-*.jsonl"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no fixture segment (%v)", err)
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	sample := regexp.MustCompile(`"KernelNs":\[[0-9.e+-]+`)
	loc := sample.FindIndex(raw)
	if loc == nil {
		t.Fatal("no kernel sample in the fixture")
	}
	corrupt := append(append(append([]byte(nil), raw[:loc[0]]...), `"KernelNs":[1`...), raw[loc[1]:]...)
	if err := os.WriteFile(segs[0], corrupt, 0o644); err != nil {
		t.Fatal(err)
	}

	r := newRun(cfg)
	if err := r.sweep(ctx, ref); err != nil {
		t.Fatal(err)
	}
	if res := r.result(); res.Correct || res.Failed != res.Attempted || res.Attempted != quickReps {
		t.Fatalf("corrupt fixture: correct=%v attempted=%d failed=%d; want every rep failed", res.Correct, res.Attempted, res.Failed)
	}
}

// TestTimedStoreKeepsZeroCopyPath re-sweeps one store twice through the
// slot cache, with and without timedStore: the slot cache must see the
// same hits and misses, which it only sees when the harness takes the
// Decoded path.
func TestTimedStoreKeepsZeroCopyPath(t *testing.T) {
	spec := harness.GridSpec{
		Benchmarks: []string{"crc"},
		Sizes:      []string{"tiny"},
		Devices:    []string{"i7-6700k", "gtx1080", "rx480"},
		Options:    harness.DefaultOptions(),
		Workers:    2,
	}
	stats := func(timed bool) store.CacheStats {
		dir := t.TempDir()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s := spec
		s.Store = st
		if _, err := harness.RunGrid(context.Background(), suite.New(), s); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		inner, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		cached := store.Cached(inner)
		defer cached.Close()
		s.Store = cached
		if timed {
			s.Store = &timedStore{CachedStore: cached}
		}
		for i := 0; i < 2; i++ {
			g, err := harness.RunGrid(context.Background(), suite.New(), s)
			if err != nil {
				t.Fatal(err)
			}
			if g.StoreHits != 3 {
				t.Fatalf("re-sweep %d: %d store hits, want 3", i, g.StoreHits)
			}
		}
		return cached.Stats()
	}
	plain, timed := stats(false), stats(true)
	if plain != timed {
		t.Fatalf("slot cache stats differ: plain %+v, timed %+v", plain, timed)
	}
	if timed.Hits != 3 || timed.Misses != 3 {
		t.Fatalf("timed stats %+v: want 3 slot misses then 3 hits", timed)
	}
}
