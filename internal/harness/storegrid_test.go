package harness

import (
	"context"

	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"opendwarfs/internal/opencl"
	"opendwarfs/internal/scibench"
	"opendwarfs/internal/sim"
	"opendwarfs/internal/store"
	"opendwarfs/internal/suite"
)

func tinyStoreSpec(st *store.Store) GridSpec {
	opt := DefaultOptions()
	opt.Samples = 6
	spec := GridSpec{
		Benchmarks: []string{"crc", "fft"},
		Sizes:      []string{"tiny"},
		Devices:    []string{"i7-6700k", "gtx1080", "k20m"},
		Options:    opt,
		Workers:    2,
	}
	// Assign only a live store: a typed-nil *store.Store in the interface
	// field would read as "store attached".
	if st != nil {
		spec.Store = st
	}
	return spec
}

// storeRecords counts a store's cell records and preparation records and
// fails on any record that is neither: a cell carries a device and the
// schema, a preparation neither, and its payload must decode.
func storeRecords(t *testing.T, st store.CellStore) (cells, preps int) {
	t.Helper()
	for _, rec := range st.Records() {
		switch {
		case rec.Device != "" && rec.Schema == StoreSchemaVersion:
			cells++
		case rec.Device == "" && rec.Schema == 0:
			if _, err := decodePreparation(rec.Value); err != nil {
				t.Fatalf("preparation record %s/%s: %v", rec.Benchmark, rec.Size, err)
			}
			preps++
		default:
			t.Fatalf("record %s is neither a cell nor a preparation: %+v", rec.Key, rec)
		}
	}
	return cells, preps
}

func gridCSV(t *testing.T, g *Grid) []byte {
	t.Helper()
	var recs []scibench.Record
	for _, m := range g.Measurements {
		recs = append(recs, m.Records()...)
	}
	var buf bytes.Buffer
	if err := scibench.WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStoreIncrementalResweep is the tentpole invariant: a cold sweep
// populates the store, an unchanged re-sweep is a 100% hit and the two
// grids are value-identical — byte-identical once exported.
func TestStoreIncrementalResweep(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := suite.New()

	cold, err := RunGrid(context.Background(), reg, tinyStoreSpec(st))
	if err != nil {
		t.Fatal(err)
	}
	if cold.StoreHits != 0 || cold.StoreMisses != cold.Cells() {
		t.Fatalf("cold sweep: %d hits / %d misses over %d cells", cold.StoreHits, cold.StoreMisses, cold.Cells())
	}
	// One cell record per cell, one preparation record per row.
	if cells, preps := storeRecords(t, st); cells != cold.Cells() || preps != 2 {
		t.Fatalf("store holds %d cells and %d preparations, want %d and 2", cells, preps, cold.Cells())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Fresh process: reopen the directory and re-sweep.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunGrid(context.Background(), reg, tinyStoreSpec(st2))
	if err != nil {
		t.Fatal(err)
	}
	if warm.StoreMisses != 0 || warm.StoreHits != warm.Cells() {
		t.Fatalf("warm sweep: %d hits / %d misses, want 100%% hits", warm.StoreHits, warm.StoreMisses)
	}
	if warm.HitRate() != 100 {
		t.Fatalf("hit rate %.1f%%, want 100%%", warm.HitRate())
	}
	if !reflect.DeepEqual(cold.Measurements, warm.Measurements) {
		t.Fatal("stored measurements are not value-identical to measured ones")
	}
	if !bytes.Equal(gridCSV(t, cold), gridCSV(t, warm)) {
		t.Fatal("cold and warm CSV exports differ")
	}

	// GridFromStore serves the same cells without any measuring.
	served, err := GridFromStore(st2)
	if err != nil {
		t.Fatal(err)
	}
	if served.Cells() != cold.Cells() {
		t.Fatalf("GridFromStore: %d cells, want %d", served.Cells(), cold.Cells())
	}
	for _, m := range cold.Measurements {
		got := served.Find(m.Benchmark, m.Size, m.Device.ID)
		if got == nil || !reflect.DeepEqual(m, got) {
			t.Fatalf("served cell %s/%s/%s differs from measured", m.Benchmark, m.Size, m.Device.ID)
		}
	}
}

// TestStoreFingerprintInvalidation: any change to seed, sampling options or
// the device spec must produce a different key — the stored cell is missed,
// not wrongly reused.
func TestStoreFingerprintInvalidation(t *testing.T) {
	opt := tinyStoreSpec(nil).Options
	d, err := opencl.LookupDevice("gtx1080")
	if err != nil {
		t.Fatal(err)
	}
	base := CellKey("crc", "tiny", d.Spec, opt)

	if CellKey("crc", "tiny", d.Spec, opt) != base {
		t.Fatal("CellKey not deterministic")
	}

	seedOpt := opt
	seedOpt.Seed++
	samplesOpt := opt
	samplesOpt.Samples++
	budgetOpt := opt
	budgetOpt.MaxFunctionalOps = 0
	verifyOpt := opt
	verifyOpt.Verify = !verifyOpt.Verify
	loopOpt := opt
	loopOpt.MinLoopNs *= 2

	editedSpec := *d.Spec
	editedSpec.MaxClockMHz += 100

	keys := map[string]string{
		"seed":        CellKey("crc", "tiny", d.Spec, seedOpt),
		"samples":     CellKey("crc", "tiny", d.Spec, samplesOpt),
		"budget":      CellKey("crc", "tiny", d.Spec, budgetOpt),
		"verify":      CellKey("crc", "tiny", d.Spec, verifyOpt),
		"minloop":     CellKey("crc", "tiny", d.Spec, loopOpt),
		"device spec": CellKey("crc", "tiny", &editedSpec, opt),
		"benchmark":   CellKey("fft", "tiny", d.Spec, opt),
		"size":        CellKey("crc", "small", d.Spec, opt),
	}
	seen := map[string]string{base: "base"}
	for what, k := range keys {
		if prev, dup := seen[k]; dup {
			t.Errorf("changing %s collides with %s", what, prev)
		}
		seen[k] = what
	}
}

// TestCellKeyFramesEncodedParts: CellKey, and the keys a grid run builds
// from parts it encodes once, equal store.Fingerprint over the unencoded
// parts in CellKey's documented order, for every catalogue device under
// several option sets.
func TestCellKeyFramesEncodedParts(t *testing.T) {
	cells, _, err := planCells(suite.New(), GridSpec{Benchmarks: []string{"crc", "nqueens"}, Sizes: []string{"tiny"}})
	if err != nil {
		t.Fatal(err)
	}
	quick := quickOpts()
	quick.Seed, quick.Verify = 7, false
	negative := DefaultOptions()
	negative.Seed, negative.MinLoopNs = -3, 0.5
	for _, opt := range []Options{DefaultOptions(), quick, negative} {
		keys := newCellKeys(cells, opt)
		for _, c := range cells {
			want := store.Fingerprint(
				"opendwarfs/cell", StoreSchemaVersion,
				c.bench.Name(), c.size, opt.Seed, c.dev.Spec,
				cellOptions{
					Samples:          opt.Samples,
					MinLoopNs:        opt.MinLoopNs,
					MaxLoopIters:     opt.MaxLoopIters,
					MaxFunctionalOps: opt.MaxFunctionalOps,
					Verify:           opt.Verify,
				},
			)
			if got := CellKey(c.bench.Name(), c.size, c.dev.Spec, opt); got != want {
				t.Fatalf("%s, seed %d: CellKey %s, Fingerprint %s", c, opt.Seed, got, want)
			}
			if got := keys.key(c); got != want {
				t.Fatalf("%s, seed %d: the run's key %s, Fingerprint %s", c, opt.Seed, got, want)
			}
		}
	}
	if n := len(opencl.AllDevices()); len(cells) != 2*n {
		t.Fatalf("%d cells, want both rows on all %d devices", len(cells), n)
	}
}

// TestStoreInvalidationEndToEnd runs the miss path through RunGrid: a
// different seed over a populated store must recompute every cell.
func TestStoreInvalidationEndToEnd(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := suite.New()
	spec := tinyStoreSpec(st)
	if _, err := RunGrid(context.Background(), reg, spec); err != nil {
		t.Fatal(err)
	}

	spec.Options.Seed++
	g, err := RunGrid(context.Background(), reg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if g.StoreHits != 0 || g.StoreMisses != g.Cells() {
		t.Fatalf("seed change: %d hits / %d misses, want all misses", g.StoreHits, g.StoreMisses)
	}
	// Both generations now coexist in the store, cells and the two rows'
	// preparations alike: the seed is part of both keys.
	if cells, preps := storeRecords(t, st); cells != 2*g.Cells() || preps != 2*2 {
		t.Fatalf("store holds %d cells and %d preparations, want %d and 4", cells, preps, 2*g.Cells())
	}
}

// TestStoreConcurrentWriters drives two overlapping grids into one store
// from concurrent RunGrid calls (each itself multi-worker) under -race,
// then proves the union re-sweep is served entirely from the store.
func TestStoreConcurrentWriters(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := suite.New()

	opt := DefaultOptions()
	opt.Samples = 6
	specA := GridSpec{
		Benchmarks: []string{"crc", "fft"},
		Sizes:      []string{"tiny"},
		Devices:    []string{"i7-6700k", "gtx1080"},
		Options:    opt, Workers: 2, Store: st,
	}
	specB := GridSpec{
		Benchmarks: []string{"fft", "nw"}, // fft/tiny cells overlap with specA
		Sizes:      []string{"tiny"},
		Devices:    []string{"gtx1080", "k20m"},
		Options:    opt, Workers: 2, Store: st,
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 2)
	for _, spec := range []GridSpec{specA, specB} {
		wg.Add(1)
		go func(spec GridSpec) {
			defer wg.Done()
			if _, err := RunGrid(context.Background(), reg, spec); err != nil {
				errCh <- err
			}
		}(spec)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Union sweep: every cell of both specs must now hit.
	union := GridSpec{
		Benchmarks: []string{"crc", "fft", "nw"},
		Sizes:      []string{"tiny"},
		Devices:    []string{"i7-6700k", "gtx1080", "k20m"},
		Options:    opt, Workers: 4, Store: st,
	}
	g, err := RunGrid(context.Background(), reg, union)
	if err != nil {
		t.Fatal(err)
	}
	// specA covers crc,fft × i7,gtx; specB covers fft,nw × gtx,k20m. The
	// union adds crc/k20m, nw/i7 and fft/i7,k20m-style corners as misses.
	wantHits := 2*2 + 2*2 - 1 // 8 written minus the shared fft/gtx1080 duplicate
	if g.StoreHits != wantHits {
		t.Fatalf("union sweep: %d hits, want %d", g.StoreHits, wantHits)
	}
	if g.StoreHits+g.StoreMisses != g.Cells() {
		t.Fatalf("hits %d + misses %d != cells %d", g.StoreHits, g.StoreMisses, g.Cells())
	}
}

// TestHitRateMixedResweep pins Grid.StoreHits/StoreMisses/HitRate under a
// partially-warm store: a re-sweep wider than the original must hit
// exactly the old cells, miss exactly the new ones, report the matching
// rate, and agree with the event stream's final counters. Merge must
// accumulate the counters across grids.
func TestHitRateMixedResweep(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := suite.New()
	warm := tinyStoreSpec(st) // crc,fft × tiny × 3 devices = 6 cells
	if _, err := RunGrid(context.Background(), reg, warm); err != nil {
		t.Fatal(err)
	}

	// Widen by one benchmark and one device: 3×tiny×4 = 12 cells, of which
	// the original 6 are warm.
	wide := warm
	wide.Benchmarks = []string{"crc", "fft", "nw"}
	wide.Devices = append(append([]string(nil), warm.Devices...), "titanx")
	events, err := Stream(context.Background(), reg, wide)
	if err != nil {
		t.Fatal(err)
	}
	var g *Grid
	var lastHits, lastMisses int
	for ev := range events {
		switch ev.Kind {
		case EventStoreHit, EventCellDone:
			if ev.Hits < lastHits || ev.Misses < lastMisses {
				t.Fatalf("event counters went backwards: %d/%d after %d/%d", ev.Hits, ev.Misses, lastHits, lastMisses)
			}
			lastHits, lastMisses = ev.Hits, ev.Misses
		case EventGridDone:
			g = ev.Grid
			if ev.Hits != g.StoreHits || ev.Misses != g.StoreMisses {
				t.Fatalf("grid_done counters %d/%d disagree with grid %d/%d", ev.Hits, ev.Misses, g.StoreHits, g.StoreMisses)
			}
		}
	}
	if g.StoreHits != 6 || g.StoreMisses != 6 {
		t.Fatalf("mixed re-sweep: %d hits / %d misses, want 6/6", g.StoreHits, g.StoreMisses)
	}
	if g.StoreHits != lastHits || g.StoreMisses != lastMisses {
		t.Fatalf("final cell event counters %d/%d disagree with grid %d/%d", lastHits, lastMisses, g.StoreHits, g.StoreMisses)
	}
	if got, want := g.HitRate(), 100*6.0/12.0; got != want {
		t.Fatalf("hit rate %.2f%%, want %.2f%%", got, want)
	}

	// A fresh, store-less grid reports a zero rate, not NaN.
	if (&Grid{}).HitRate() != 0 {
		t.Fatal("empty grid HitRate not 0")
	}

	// Merge accumulates the counters (last-wins on cells does not lose the
	// provenance tally).
	cold, err := RunGrid(context.Background(), reg, tinyStoreSpec(nil))
	if err != nil {
		t.Fatal(err)
	}
	merged := &Grid{}
	merged.Merge(g)
	merged.Merge(cold)
	if merged.StoreHits != 6 || merged.StoreMisses != 6 {
		t.Fatalf("merge lost counters: %d/%d", merged.StoreHits, merged.StoreMisses)
	}
	// Re-sweeping the widened spec again is now a 100% hit.
	again, err := RunGrid(context.Background(), reg, wide)
	if err != nil {
		t.Fatal(err)
	}
	if again.HitRate() != 100 || again.StoreMisses != 0 {
		t.Fatalf("second re-sweep: rate %.1f%%, misses %d", again.HitRate(), again.StoreMisses)
	}
}

// TestUnknownSizeAndDeviceFailLoudly: a typo'd -sizes or -devices value
// must name the sorted valid values instead of being silently skipped.
func TestUnknownSizeAndDeviceFailLoudly(t *testing.T) {
	reg := suite.New()
	opt := DefaultOptions()
	opt.Samples = 4

	_, err := RunGrid(context.Background(), reg, GridSpec{
		Benchmarks: []string{"crc"},
		Sizes:      []string{"tinny"},
		Devices:    []string{"i7-6700k"},
		Options:    opt,
	})
	if err == nil {
		t.Fatal("unknown size silently accepted")
	}
	for _, want := range []string{"tinny", "tiny", "small", "medium", "large"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("size error %q does not mention %q", err, want)
		}
	}

	_, err = RunGrid(context.Background(), reg, GridSpec{
		Benchmarks: []string{"crc"},
		Sizes:      []string{"tiny"},
		Devices:    []string{"gtx1081"},
		Options:    opt,
	})
	if err == nil {
		t.Fatal("unknown device silently accepted")
	}
	for _, want := range []string{"gtx1081", "gtx1080", "i7-6700k"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("device error %q does not mention %q", err, want)
		}
	}

	// A size valid for some selected benchmarks but not others still just
	// narrows the rows (nqueens is single-size).
	g, err := RunGrid(context.Background(), reg, GridSpec{
		Benchmarks: []string{"crc", "nqueens"},
		Sizes:      []string{"large"},
		Devices:    []string{"i7-6700k"},
		Options:    opt,
	})
	if err != nil {
		t.Fatalf("partially-supported size rejected: %v", err)
	}
	if g.Cells() != 1 {
		t.Fatalf("%d cells, want crc/large only", g.Cells())
	}
}

// TestConcurrentStoreHitReaders hammers one warm store from several
// RunGrid and GridFromStore readers at once — the dwarfserve shape, where a
// job's sweep and query reloads share the store's decoded slots. Run under -race this
// is the data-race gate for the zero-copy read path; in any mode it checks
// every reader sees full hits and the literal shared cell pointers.
func TestConcurrentStoreHitReaders(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := suite.New()
	spec := tinyStoreSpec(nil)
	spec.Store = st
	cold, err := RunGrid(context.Background(), reg, spec)
	if err != nil {
		t.Fatal(err)
	}

	const readers = 8
	var wg sync.WaitGroup
	grids := make([]*Grid, readers)
	for i := range readers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				g, err := RunGrid(context.Background(), reg, spec)
				if err != nil {
					t.Error(err)
					return
				}
				if g.StoreHits != g.Cells() {
					t.Errorf("reader %d: %d hits over %d cells", i, g.StoreHits, g.Cells())
				}
				grids[i] = g
				return
			}
			g, err := GridFromStore(st)
			if err != nil {
				t.Error(err)
				return
			}
			grids[i] = g
		}(i)
	}
	wg.Wait()

	// Zero-copy across readers: every grid serves the same *Measurement per
	// cell, not equal copies.
	for i, g := range grids {
		if g == nil || g.Cells() != cold.Cells() {
			t.Fatalf("reader %d: incomplete grid", i)
		}
		for _, m := range g.Measurements {
			ref := grids[0].Find(m.Benchmark, m.Size, m.Device.ID)
			if ref != m {
				t.Fatalf("reader %d decoded a private copy of %s/%s/%s", i, m.Benchmark, m.Size, m.Device.ID)
			}
		}
	}
	if s := st.Stats(); s.Hits == 0 {
		t.Fatalf("no slot hits across %d readers: %+v", readers, s)
	}
}

// TestGridFromStoreFirstDecodeError: of two current-schema cell records
// that do not decode, the one first in listing order is reported, whether
// it is read inline or by the decode pool, and whichever decode finishes
// first. The bad records' keys sort opposite to their listing order.
func TestGridFromStoreFirstDecodeError(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunGrid(context.Background(), suite.New(), tinyStoreSpec(st)); err != nil {
		t.Fatal(err)
	}
	bad := func(key, bench, device, value string) {
		t.Helper()
		rec := store.Record{Key: key, Benchmark: bench, Size: "tiny", Device: device, Schema: StoreSchemaVersion, Value: []byte(value)}
		if err := st.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	// Listed after crc's three good cells (the first of which starts the
	// pool) and before every fft record. The first is slow to fail (a
	// long sample array, no device), the second fails at once, so with
	// two or more workers the second's error is usually found first.
	bad("zz-first", "crc", "zz-bad", `{"KernelNs":[`+strings.Repeat("1.5,", 100000)+`1.5]}`)
	bad("aa-second", "fft", "aa-bad", `{}`)
	st.Close()

	for i := 0; i < 20; i++ {
		cold, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		_, err = GridFromStore(cold)
		cold.Close()
		if want := "harness: store cell zz-first: "; err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("GridFromStore error %v, want prefix %q", err, want)
		}
	}

	// A bad record listed first is read inline, before any decode pool.
	first, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if err := first.Put(store.Record{Key: "mm-inline", Benchmark: "aaa", Size: "tiny", Device: "d", Schema: StoreSchemaVersion, Value: []byte(`{}`)}); err != nil {
		t.Fatal(err)
	}
	if _, err := GridFromStore(first); err == nil || !strings.HasPrefix(err.Error(), "harness: store cell mm-inline: ") {
		t.Fatalf("GridFromStore error %v, want the inline record named", err)
	}
}

// TestEncodedGridGolden pins the stored bytes of every cell of a one-device
// grid over the benchmarks whose datasets are drawn lazily (dwt, lud, hmm,
// fft, gem) and csr, at all sizes, seed 1 and the paper's options — so
// drift in footprints, launch counts, profiles, samples or the
// Functional/Verified flags fails here even where every in-process test
// still agrees with itself. Refresh the digest only together with a
// deliberate StoreSchemaVersion bump.
func TestEncodedGridGolden(t *testing.T) {
	const want = "08a8492ed4ee8550271d76fd2cb3afbd0ea5d3c60e1ba461ff34c228c30f8fa5"
	g, err := RunGrid(context.Background(), suite.New(), GridSpec{
		Benchmarks: []string{"dwt", "lud", "hmm", "fft", "gem", "csr"},
		Devices:    []string{"i7-6700k"},
		Options:    DefaultOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.Cells() != 24 {
		t.Fatalf("%d cells, want 24", g.Cells())
	}
	h := sha256.New()
	for _, m := range g.Measurements {
		raw, err := EncodeMeasurement(m)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(raw)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("encoded grid digest %s, want %s", got, want)
	}
}

// TestFullGridGolden pins the stored bytes of the whole 615-cell grid
// (every benchmark, size and device) at seed 2 with the paper's options
// and the default worker count. It sees every Functional and Verified
// flag, footprint, profile and sample the suite produces, so a change
// meant to speed up preparation or measurement must leave it untouched.
// The grid is run without a store and again into one; the reopened store
// must then give back, through GridFromStore, every cell encoding to the
// bytes RunGrid returned. Refresh the digest only together with a
// deliberate StoreSchemaVersion bump.
func TestFullGridGolden(t *testing.T) {
	const want = "2fdd3ba97bed4cd2f2701405c8b63a965cc7078cc3e59888194161601635b994"
	opt := DefaultOptions()
	opt.Seed = 2
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var stored *Grid
	for _, spec := range []GridSpec{{Options: opt}, {Options: opt, Store: st}} {
		g, err := RunGrid(context.Background(), suite.New(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if g.Cells() != 615 {
			t.Fatalf("%d cells, want 615", g.Cells())
		}
		h := sha256.New()
		for _, m := range g.Measurements {
			raw, err := EncodeMeasurement(m)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(raw)
			// A cell decodes from its stored bytes to a value deep-equal to
			// the measured one, so the measured cell can stand in for its
			// decode.
			if back, err := DecodeMeasurement(raw); err != nil || !reflect.DeepEqual(back, m) {
				t.Fatalf("%s/%s/%s does not round-trip through its stored bytes (decode error %v)", m.Benchmark, m.Size, m.Device.ID, err)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Fatalf("full grid digest %s, want %s (store attached: %v)", got, want, spec.Store != nil)
		}
		stored = g
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	// The store keeps its listing in order: listing it is one copy.
	if n := reopened.Len(); n != fullGridRecords {
		t.Fatalf("reopened store holds %d records, want %d", n, fullGridRecords)
	}
	if allocs := testing.AllocsPerRun(10, func() { reopened.Records() }); allocs != 1 {
		t.Fatalf("Records on the %d-record store: %v allocations, want 1", fullGridRecords, allocs)
	}
	served, err := GridFromStore(reopened)
	if err != nil {
		t.Fatal(err)
	}
	if served.Cells() != stored.Cells() {
		t.Fatalf("GridFromStore: %d cells, want %d", served.Cells(), stored.Cells())
	}
	// In listing order: the store's cell records, preparations skipped.
	i := 0
	for _, rec := range reopened.Records() {
		if rec.Schema != StoreSchemaVersion {
			continue
		}
		if m := served.Measurements[i]; m.Benchmark != rec.Benchmark || m.Size != rec.Size || m.Device.ID != rec.Device {
			t.Fatalf("served cell %d is %s/%s/%s, listing has %s/%s/%s", i, m.Benchmark, m.Size, m.Device.ID, rec.Benchmark, rec.Size, rec.Device)
		}
		i++
	}
	for _, m := range served.Measurements {
		ref := stored.Find(m.Benchmark, m.Size, m.Device.ID)
		if ref == nil {
			t.Fatalf("served cell %s/%s/%s was not measured", m.Benchmark, m.Size, m.Device.ID)
		}
		got, err := EncodeMeasurement(m)
		if err != nil {
			t.Fatal(err)
		}
		wantRaw, err := EncodeMeasurement(ref)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantRaw) {
			t.Fatalf("served cell %s/%s/%s encodes differently from the measured one", m.Benchmark, m.Size, m.Device.ID)
		}
	}
}

// TestCanonicalReaderReadsFullGrid: every cell record of the seed-2 full
// grid's store, the 615 cells TestFullGridGolden pins, takes the canonical
// reader's one-pass path, reads to the value encoding/json decodes, and
// encodes back to its stored bytes.
func TestCanonicalReaderReadsFullGrid(t *testing.T) {
	fs, err := fullStoreContents()
	if err != nil {
		t.Fatal(err)
	}
	cells := 0
	for _, rec := range fs.recs {
		if rec.Schema != StoreSchemaVersion {
			continue
		}
		cells++
		m, ok := readMeasurement(rec.Value)
		if !ok {
			t.Fatalf("%s/%s/%s: readMeasurement (canonical.go) refused the stored cell; a field added to an encoded type needs its line there", rec.Benchmark, rec.Size, rec.Device)
		}
		var want Measurement
		if err := json.Unmarshal(rec.Value, &want); err != nil || !reflect.DeepEqual(m, &want) {
			t.Fatalf("%s/%s/%s: readMeasurement and encoding/json disagree (json error %v)", rec.Benchmark, rec.Size, rec.Device, err)
		}
		if raw, err := EncodeMeasurement(m); err != nil || !bytes.Equal(raw, rec.Value) {
			t.Fatalf("%s/%s/%s: the read cell does not encode to its stored bytes (%v)", rec.Benchmark, rec.Size, rec.Device, err)
		}
	}
	if cells != fullGridCells {
		t.Fatalf("%d cell records, want %d", cells, fullGridCells)
	}
}

// TestInconsistentStoredCellIsMeasuredAgain: a stored cell whose sample
// vectors differ in length, or whose Profiles holds a null, must not be
// served — Records indexes the energy and transfer samples by kernel
// sample, and the predictor dereferences every profile. It reads as a
// miss, so the cell is measured again and the grid exports as a clean
// sweep's.
func TestInconsistentStoredCellIsMeasuredAgain(t *testing.T) {
	spec := func(st store.CellStore) GridSpec {
		opt := DefaultOptions()
		opt.Samples = 6
		return GridSpec{
			Benchmarks: []string{"crc"}, Sizes: []string{"tiny"}, Devices: []string{"i7-6700k"},
			Options: opt, Workers: 1, Store: st,
		}
	}
	reg := suite.New()
	clean, err := RunGrid(context.Background(), reg, spec(nil))
	if err != nil {
		t.Fatal(err)
	}
	want := gridCSV(t, clean)
	for _, tc := range []struct {
		name    string
		corrupt func(m *Measurement)
	}{
		{"short energy vector", func(m *Measurement) { m.EnergyJ = m.EnergyJ[:3] }},
		{"long transfer vector", func(m *Measurement) { m.TransferNs = append(m.TransferNs, 0) }},
		{"null profile", func(m *Measurement) { m.Profiles = []*sim.KernelProfile{nil} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := RunGrid(context.Background(), reg, spec(st)); err != nil {
				t.Fatal(err)
			}
			for _, rec := range st.Records() {
				if rec.Schema != StoreSchemaVersion {
					continue
				}
				m := &Measurement{}
				if err := json.Unmarshal(rec.Value, m); err != nil {
					t.Fatal(err)
				}
				tc.corrupt(m)
				bad := *rec
				if bad.Value, err = EncodeMeasurement(m); err != nil {
					t.Fatal(err)
				}
				if err := st.Put(bad); err != nil {
					t.Fatal(err)
				}
			}
			st.Close()

			st, err = store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			g, err := RunGrid(context.Background(), reg, spec(st))
			if err != nil {
				t.Fatal(err)
			}
			if g.StoreHits != 0 || g.StoreMisses != 1 {
				t.Fatalf("%d hits and %d misses, want 0 and 1", g.StoreHits, g.StoreMisses)
			}
			if !bytes.Equal(gridCSV(t, g), want) {
				t.Fatal("the re-measured grid's CSV differs from a clean sweep's")
			}
		})
	}
}
