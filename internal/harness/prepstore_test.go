package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"opendwarfs/internal/obs"
	"opendwarfs/internal/opencl"
	"opendwarfs/internal/store"
	"opendwarfs/internal/suite"
)

// prepGridSpec is a multi-row selection over functional and
// simulate-only rows.
func prepGridSpec(devices ...string) GridSpec {
	opt := DefaultOptions()
	opt.Samples = 6
	return GridSpec{
		Benchmarks: []string{"crc", "fft", "nw", "lud"},
		Sizes:      []string{"tiny", "small"},
		Devices:    devices,
		Options:    opt,
		Workers:    2,
	}
}

// encodedCells maps each cell of a grid to its stored bytes.
func encodedCells(t *testing.T, g *Grid) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, g.Cells())
	for _, m := range g.Measurements {
		raw, err := EncodeMeasurement(m)
		if err != nil {
			t.Fatal(err)
		}
		out[mergeKey(m)] = raw
	}
	return out
}

func sameCells(t *testing.T, got, want *Grid) {
	t.Helper()
	if got.Cells() != want.Cells() {
		t.Fatalf("%d cells, want %d", got.Cells(), want.Cells())
	}
	ref := encodedCells(t, want)
	for key, raw := range encodedCells(t, got) {
		if !bytes.Equal(raw, ref[key]) {
			t.Fatalf("cell %q: stored bytes differ from a cold sweep's", key)
		}
	}
}

// TestPreparationsOutliveTheProcess is the registry-reuse contract for
// preparations: rows prepared by one process are decoded, never prepared,
// by the next — adding a device to a stored grid runs zero Prepares — and
// the cells measured from them are byte-identical to a cold sweep's.
func TestPreparationsOutliveTheProcess(t *testing.T) {
	reg := suite.New()
	const rows = 4 * 2
	dir := t.TempDir()
	first, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := prepGridSpec("i7-6700k", "gtx1080", "k20m")
	spec.Store = first
	if _, err := RunGrid(context.Background(), reg, spec); err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh handle over the directory, as a second process opens it.
	second, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	metrics := obs.NewRegistry()
	spec = prepGridSpec("i7-6700k", "gtx1080", "k20m", "titanx")
	spec.Store, spec.Metrics = second, metrics
	widened, err := RunGrid(context.Background(), reg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if widened.StoreHits != 3*rows || widened.StoreMisses != rows {
		t.Fatalf("widened sweep: %d hits / %d misses, want %d / %d", widened.StoreHits, widened.StoreMisses, 3*rows, rows)
	}
	if n := metrics.CounterValue("harness_prepares_total"); n != 0 {
		t.Fatalf("harness_prepares_total = %d adding a device to a stored grid, want 0", n)
	}
	if n := metrics.CounterValue("harness_prep_store_hits_total"); n != rows {
		t.Fatalf("harness_prep_store_hits_total = %d, want %d rows", n, rows)
	}
	// Preparations are read raw: the slot cache decoded the hit cells and
	// nothing else.
	if s := second.Stats(); s.Misses != int64(widened.StoreHits) || s.Hits != 0 || s.Evictions != 0 {
		t.Fatalf("slot cache %+v, want exactly %d misses", s, widened.StoreHits)
	}

	empty, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	spec.Store, spec.Metrics = empty, nil
	cold, err := RunGrid(context.Background(), reg, spec)
	if err != nil {
		t.Fatal(err)
	}
	sameCells(t, widened, cold)
}

// TestPreparationRoundTrip: Measure replays a decoded preparation into the
// same bytes as the preparation that was stored, on simulate-only and
// functional rows alike, and encoding is a fixed point of decoding.
func TestPreparationRoundTrip(t *testing.T) {
	reg := suite.New()
	opt := DefaultOptions()
	opt.Samples = 6
	for _, row := range []struct {
		bench, size string
		functional  bool
	}{
		{"lud", "large", false}, // 767 commands, the largest record
		{"dwt", "large", false},
		{"nw", "medium", true},
		{"hmm", "tiny", true},
		{"crc", "tiny", true},
	} {
		t.Run(row.bench+"/"+row.size, func(t *testing.T) {
			b, err := reg.Get(row.bench)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := Prepare(context.Background(), b, row.size, opt)
			if err != nil {
				t.Fatal(err)
			}
			if fresh.Functional != row.functional {
				t.Fatalf("Functional = %v, want %v", fresh.Functional, row.functional)
			}
			raw, err := encodePreparation(fresh)
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := decodePreparation(raw)
			if err != nil {
				t.Fatal(err)
			}
			decoded.Benchmark, decoded.Dwarf, decoded.Size = b.Name(), b.Dwarf(), row.size
			again, err := encodePreparation(decoded)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, raw) {
				t.Fatal("re-encoding a decoded preparation changed its bytes")
			}
			if len(decoded.trace) != len(fresh.trace) || len(decoded.profiles) != len(fresh.profiles) {
				t.Fatalf("decoded %d commands / %d profiles, want %d / %d",
					len(decoded.trace), len(decoded.profiles), len(fresh.trace), len(fresh.profiles))
			}
			for _, id := range []string{"i7-6700k", "gtx1080"} {
				want := encodeMeasured(t, fresh, device(t, id), opt)
				got := encodeMeasured(t, decoded, device(t, id), opt)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: measurement from the decoded preparation differs", id)
				}
			}
		})
	}
}

func encodeMeasured(t *testing.T, p *Preparation, dev *opencl.Device, opt Options) []byte {
	t.Helper()
	m, err := p.Measure(context.Background(), dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := EncodeMeasurement(m)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestPrepReaderReadsFullGrid: every preparation record of the seed-2 full
// grid's store takes the one-pass reader, reads to the storedPrep
// encoding/json decodes, and rebuilds a preparation whose launch count is
// its trace's and which encodes back to its stored bytes.
func TestPrepReaderReadsFullGrid(t *testing.T) {
	fs, err := fullStoreContents()
	if err != nil {
		t.Fatal(err)
	}
	preps := 0
	for _, rec := range fs.recs {
		if rec.Schema == StoreSchemaVersion {
			continue
		}
		preps++
		sp, ok := readStoredPrep(rec.Value)
		if !ok {
			t.Fatalf("%s/%s: readStoredPrep (prepstore.go) refused the stored preparation; a field added to storedPrep or storedProfile needs its line there", rec.Benchmark, rec.Size)
		}
		var want storedPrep
		if err := json.Unmarshal(rec.Value, &want); err != nil || !reflect.DeepEqual(sp, &want) {
			t.Fatalf("%s/%s: readStoredPrep and encoding/json disagree (json error %v)", rec.Benchmark, rec.Size, err)
		}
		p, err := sp.preparation()
		if err != nil {
			t.Fatalf("%s/%s: %v", rec.Benchmark, rec.Size, err)
		}
		if raw, err := encodePreparation(p); err != nil || !bytes.Equal(raw, rec.Value) {
			t.Fatalf("%s/%s: the read preparation does not encode to its stored bytes (%v)", rec.Benchmark, rec.Size, err)
		}
	}
	if want := fullGridRecords - fullGridCells; preps != want {
		t.Fatalf("%d preparation records, want %d", preps, want)
	}
}

// TestImpossibleStoredPreparationIsPreparedAgain: a stored preparation
// Prepare could not have returned — a launch count its trace does not
// hold, or a verdict without a functional run — is not replayed. The row
// is prepared again, and its cell carries the launch count a clean sweep
// measures, which EncodeMeasurement stores and the predictor reads.
func TestImpossibleStoredPreparationIsPreparedAgain(t *testing.T) {
	reg := suite.New()
	spec := func(st store.CellStore) GridSpec {
		return GridSpec{
			Benchmarks: []string{"crc"}, Sizes: []string{"tiny"}, Devices: []string{"i7-6700k"},
			Options: quickOpts(), Workers: 1, Store: st,
		}
	}
	clean, err := RunGrid(context.Background(), reg, spec(nil))
	if err != nil {
		t.Fatal(err)
	}
	want := clean.Measurements[0].KernelLaunches
	b, err := reg.Get("crc")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Prepare(context.Background(), b, "tiny", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !fresh.Functional || !fresh.Verified {
		t.Fatal("crc/tiny is no longer a verified functional row")
	}
	for _, tc := range []struct {
		name  string
		alter func(sp *storedPrep)
	}{
		{"one launch too many", func(sp *storedPrep) { sp.Launches++ }},
		{"verified without a functional run", func(sp *storedPrep) { sp.Functional = false }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw, err := encodePreparation(fresh)
			if err != nil {
				t.Fatal(err)
			}
			var sp storedPrep
			if err := json.Unmarshal(raw, &sp); err != nil {
				t.Fatal(err)
			}
			tc.alter(&sp)
			if raw, err = json.Marshal(sp); err != nil {
				t.Fatal(err)
			}
			st, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			key := prepRecordKey("crc", "tiny", quickOpts())
			if err := st.Put(store.Record{Key: key, Benchmark: "crc", Size: "tiny", Value: raw}); err != nil {
				t.Fatal(err)
			}
			metrics := obs.NewRegistry()
			s := spec(st)
			s.Metrics = metrics
			g, err := RunGrid(context.Background(), reg, s)
			if err != nil {
				t.Fatal(err)
			}
			if hits, prepares := metrics.CounterValue("harness_prep_store_hits_total"), metrics.CounterValue("harness_prepares_total"); hits != 0 || prepares != 1 {
				t.Fatalf("%d preparation store hits and %d prepares, want 0 and 1", hits, prepares)
			}
			if got := g.Measurements[0].KernelLaunches; got != want {
				t.Fatalf("KernelLaunches %d, a clean sweep's %d", got, want)
			}
		})
	}
}

// TestPrepRecordKey: the options Prepare reads are in the key, the
// sampling options are not, and no preparation key equals a cell key.
func TestPrepRecordKey(t *testing.T) {
	opt := DefaultOptions()
	base := prepRecordKey("crc", "tiny", opt)
	if prepRecordKey("crc", "tiny", opt) != base {
		t.Fatal("prepRecordKey not deterministic")
	}
	changed := map[string]func(*Options){
		"seed":   func(o *Options) { o.Seed++ },
		"budget": func(o *Options) { o.MaxFunctionalOps /= 2 },
		"verify": func(o *Options) { o.Verify = !o.Verify },
	}
	for what, edit := range changed {
		o := opt
		edit(&o)
		if prepRecordKey("crc", "tiny", o) == base {
			t.Errorf("changing the %s keeps the preparation key", what)
		}
	}
	kept := map[string]func(*Options){
		"samples":   func(o *Options) { o.Samples++ },
		"min loop":  func(o *Options) { o.MinLoopNs *= 2 },
		"max iters": func(o *Options) { o.MaxLoopIters /= 2 },
	}
	for what, edit := range kept {
		o := opt
		edit(&o)
		if prepRecordKey("crc", "tiny", o) != base {
			t.Errorf("changing the %s changes the preparation key", what)
		}
	}
	if prepRecordKey("fft", "tiny", opt) == base || prepRecordKey("crc", "small", opt) == base {
		t.Error("benchmark or size missing from the preparation key")
	}
	for _, d := range opencl.AllDevices() {
		if CellKey("crc", "tiny", d.Spec, opt) == base {
			t.Fatalf("preparation key equals the %s cell key", d.ID())
		}
	}
}

// TestStoredPreparationFailures: an undecodable record is prepared again
// and overwritten; a failed or cancelled Prepare persists nothing; a
// failed Put is the entry's error.
func TestStoredPreparationFailures(t *testing.T) {
	reg := suite.New()
	b, err := reg.Get("crc")
	if err != nil {
		t.Fatal(err)
	}
	opt := quickOpts()
	key := prepRecordKey("crc", "tiny", opt)

	t.Run("corrupt record", func(t *testing.T) {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		// Valid JSON, but command 0 names an entry that does not exist.
		corrupt := json.RawMessage(`{"names":[],"profiles":[],"trace":[[0,3,0,0]]}`)
		if err := st.Put(store.Record{Key: key, Benchmark: "crc", Size: "tiny", Value: corrupt}); err != nil {
			t.Fatal(err)
		}
		metrics := obs.NewRegistry()
		c := newPrepCache(st, newGridMetrics(metrics))
		p, err := c.prepare(context.Background(), b, "tiny", opt)
		if err != nil {
			t.Fatal(err)
		}
		if metrics.CounterValue("harness_prepares_total") != 1 || metrics.CounterValue("harness_prep_store_hits_total") != 0 {
			t.Fatal("a corrupt record was not prepared again")
		}
		raw, ok := st.Get(key)
		if !ok {
			t.Fatal("preparation record gone")
		}
		want, err := encodePreparation(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, want) {
			t.Fatal("the corrupt record was not overwritten")
		}
	})

	t.Run("cancelled or failed prepare", func(t *testing.T) {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		metrics := obs.NewRegistry()
		if _, err := newPrepCache(st, newGridMetrics(metrics)).prepare(ctx, b, "tiny", opt); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled prepare returned %v", err)
		}
		bad := opt
		bad.Samples = 0
		if _, err := newPrepCache(st, newGridMetrics(metrics)).prepare(context.Background(), b, "tiny", bad); err == nil {
			t.Fatal("prepare with zero samples succeeded")
		}
		if st.Len() != 0 || metrics.CounterValue("harness_prepares_total") != 0 {
			t.Fatalf("failed prepares persisted %d records", st.Len())
		}
	})

	t.Run("put error", func(t *testing.T) {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		putErr := errors.New("disk full")
		metrics := obs.NewRegistry()
		c := newPrepCache(failingPut{st, putErr}, newGridMetrics(metrics))
		if _, err := c.prepare(context.Background(), b, "tiny", opt); !errors.Is(err, putErr) {
			t.Fatalf("prepare returned %v, want the Put error", err)
		}
		if n := metrics.CounterValue("harness_prepares_total"); n != 0 {
			t.Fatalf("harness_prepares_total = %d after a failed Put", n)
		}
	})
}

// failingPut is a store whose every Put fails.
type failingPut struct {
	store.CellStore
	err error
}

func (f failingPut) Put(store.Record) error { return f.err }
