package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

func put(t *testing.T, s *Store, key, bench, size, dev string, v any) {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Record{Key: key, Benchmark: bench, Size: size, Device: dev, Schema: 1, Value: raw}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, "k1", "crc", "tiny", "gtx1080", map[string]float64{"ns": 42.5})
	put(t, s, "k2", "fft", "small", "i7-6700k", map[string]float64{"ns": 7})
	if err := s.Put(Record{Key: "", Value: json.RawMessage(`1`)}); err == nil {
		t.Fatal("empty key accepted")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	raw, ok := s2.Get("k1")
	if !ok {
		t.Fatal("k1 missing after reopen")
	}
	var got map[string]float64
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got["ns"] != 42.5 {
		t.Fatalf("k1 value = %v", got)
	}
	if _, ok := s2.Get("nope"); ok {
		t.Fatal("phantom key")
	}
}

// TestLastWriteWins: within a segment the last line of a key wins, and a
// later segment wins over an earlier one, however the replay's parses are
// scheduled.
func TestLastWriteWins(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, "k", "crc", "tiny", "gtx1080", 1)
	put(t, s, "k", "crc", "tiny", "gtx1080", 2)
	for v := 1; v <= 3; v++ {
		put(t, s, "thrice", "fft", "tiny", "gtx1080", v)
	}
	if raw, _ := s.Get("k"); string(raw) != "2" {
		t.Fatalf("in-process value %s, want 2", raw)
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if raw, _ := s2.Get("k"); string(raw) != "2" {
		t.Fatalf("replayed value %s, want 2", raw)
	}
	if raw, _ := s2.Get("thrice"); string(raw) != "3" {
		t.Fatalf("replayed value %s of a key written three times, want the third", raw)
	}
	if s2.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s2.Len())
	}
	// A second writer generation: its segment sorts after the first.
	put(t, s2, "thrice", "fft", "tiny", "gtx1080", 4)
	s2.Close()

	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.jsonl")); len(segs) != 2 {
		t.Fatalf("segments %v, want 2", segs)
	}
	if raw, _ := s3.Get("thrice"); string(raw) != "4" {
		t.Fatalf("replayed value %s, want the later segment's 4", raw)
	}
	if raw, _ := s3.Get("k"); string(raw) != "2" || s3.Len() != 2 {
		t.Fatalf("k = %s, Len = %d; want 2 and 2", raw, s3.Len())
	}
}

func TestCompact(t *testing.T) {
	dir := t.TempDir()
	// Two writer generations → two segments.
	for gen := 0; gen < 2; gen++ {
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		put(t, s, fmt.Sprintf("k%d", gen), "crc", "tiny", "gtx1080", gen)
		put(t, s, "shared", "fft", "tiny", "gtx1080", gen)
		s.Close()
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Segments() != 2 {
		t.Fatalf("Segments = %d, want 2", s.Segments())
	}
	before, err := s.DiskBytes()
	if err != nil {
		t.Fatal(err)
	}
	// A bound ≤ 0 never compacts, nor does one above the footprint.
	for _, bound := range []int64{0, -1, before * 100} {
		if compacted, err := s.CompactIfOver(bound); err != nil || compacted {
			t.Fatalf("CompactIfOver(%d) over %d bytes: %v, %v", bound, before, compacted, err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// The overwritten "shared" line is dead: the snapshot is smaller than
	// the segments it replaced, and it is the only backing file left.
	after, err := s.DiskBytes()
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Fatalf("compaction grew the store: %d -> %d bytes", before, after)
	}
	if s.Segments() != 1 {
		t.Fatalf("Segments after compact = %d, want 1 snapshot", s.Segments())
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if len(segs) != 0 {
		t.Fatalf("segments left after compact: %v", segs)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 3 {
		t.Fatalf("Len after compact = %d, want 3", s2.Len())
	}
	if raw, _ := s2.Get("shared"); string(raw) != "1" {
		t.Fatalf("shared = %s after compact, want last write 1", raw)
	}
	// A store stays writable after compaction.
	put(t, s2, "post", "nw", "tiny", "k20m", 9)
	s2.Close()
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s3.Len())
	}
	// Snapshot plus the post-compaction segment: a tiny bound folds them.
	if compacted, err := s3.CompactIfOver(1); err != nil || !compacted {
		t.Fatalf("CompactIfOver(1): %v, %v", compacted, err)
	}
	if s3.Segments() != 1 || s3.Len() != 4 {
		t.Fatalf("after CompactIfOver: %d files, %d records; want 1 snapshot, 4 records", s3.Segments(), s3.Len())
	}
}

// TestReadLineReadsWhatPutWrites: every line Put appends to a segment —
// cell records, and preparation records, which carry no device and no
// schema — and every line of the snapshot Compact writes takes Open's
// one-pass path, and reads as encoding/json reads it.
func TestReadLineReadsWhatPutWrites(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Key: "cell", Benchmark: "nqueens", Size: "tiny", Device: "gtx1080", Schema: 1,
			Value: json.RawMessage(`{"Benchmark":"nqueens","Dwarf":"Backtrack \u0026 Branch and Bound","KernelNs":[5097.416055373342,0.000050360139658488074,1e-7],"Profiles":[{"Name":"k","Vectorizable":false}]}`)},
		{Key: "prep", Benchmark: "crc", Size: "tiny", Value: json.RawMessage(`{"fp":2008,"kl":1,"names":["crc32_pages"],"trace":[[0,0,0,0]]}`)},
		{Key: "bare", Value: json.RawMessage(`"v"`)},
		// Records Put and Compact send through json.Marshal.
		{Key: "spaced", Value: json.RawMessage(`{"a": [1, 2]}`)},
		{Key: "html", Value: json.RawMessage(`"a<b"`)},
		{Key: "separator", Value: json.RawMessage("\"a\u2028b\"")},
		{Key: "quote", Device: `dev"1`, Value: json.RawMessage(`1`)},
		{Key: "backslash", Device: `dev\1`, Value: json.RawMessage(`1`)},
		{Key: "accent", Device: "devé", Value: json.RawMessage(`1`)},
		{Key: "nil"},
	}
	for _, rec := range recs {
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	check := func(name string) {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.SplitAfter(data, []byte("\n"))
		if lines = lines[:len(lines)-1]; len(lines) != len(recs) {
			t.Fatalf("%s holds %d lines, want %d", name, len(lines), len(recs))
		}
		for _, line := range lines {
			var got, want Record
			if !readLine(line, &got) {
				t.Fatalf("readLine refused %s line %q", name, line)
			}
			if err := json.Unmarshal(line, &want); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s line %q: readLine read %+v, encoding/json %+v (%v)", name, line, got, want, err)
			}
		}
	}
	check("seg-000001.jsonl")
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	check(snapshotName)
	s.Close()
}

// TestFailedWriteRetiresSegment: a Put whose segment write fails leaves
// the handle writable. The next Put opens a fresh segment, so bytes torn
// off by the failed write stay the old segment's final line, which Open
// discards, and Compact still removes the old segment.
func TestFailedWriteRetiresSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, "a", "crc", "tiny", "gtx1080", 1)
	torn := s.segPath
	f, err := os.OpenFile(torn, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"torn","val`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s.seg.Close() // the descriptor fails
	if err := s.Put(Record{Key: "b", Value: json.RawMessage(`2`)}); err == nil {
		t.Fatal("Put on a closed segment succeeded")
	}
	put(t, s, "c", "crc", "tiny", "gtx1080", 3)
	if s.segPath == torn {
		t.Fatalf("Put after a failed write appended to %s again", torn)
	}
	reopen := func(when string) {
		t.Helper()
		r, err := Open(dir)
		if err != nil {
			t.Fatalf("Open %s: %v", when, err)
		}
		defer r.Close()
		if got := keys(pairs(r)); !reflect.DeepEqual(got, []string{"a", "c"}) {
			t.Fatalf("keys %s: %v, want [a c]", when, got)
		}
	}
	reopen("after the failed write")
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != snapshotName {
		t.Fatalf("files after Compact: %v, want only %s", ents, snapshotName)
	}
	reopen("after Compact")
}

func TestTornTailLineIsDiscarded(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, "good", "crc", "tiny", "gtx1080", 1)
	s.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if len(segs) != 1 {
		t.Fatalf("segments: %v", segs)
	}
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A crash mid-append: valid prefix, no trailing newline.
	if _, err := f.WriteString(`{"key":"torn","val`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	if s2.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s2.Len())
	}
	if _, ok := s2.Get("torn"); ok {
		t.Fatal("torn record resurrected")
	}
}

// TestCrashTruncationRecovery injects a crash at every possible byte
// offset of a segment: however much of the file survives, Open must
// recover exactly the records whose full line (including the trailing
// newline) made it to disk — the acked prefix — and drop the torn tail
// without erroring. This is the disk half of the harness's
// persist-before-announce contract: a cell whose completion event was
// observed has its full line written, so it is in the recovered prefix.
func TestCrashTruncationRecovery(t *testing.T) {
	src := t.TempDir()
	s, err := Open(src)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		put(t, s, fmt.Sprintf("k%d", i), "crc", "tiny", fmt.Sprintf("dev%d", i), i)
	}
	s.Close()
	segs, _ := filepath.Glob(filepath.Join(src, "seg-*.jsonl"))
	if len(segs) != 1 {
		t.Fatalf("segments: %v", segs)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(data); cut++ {
		complete := 0 // records whose full line fits in data[:cut]
		for _, b := range data[:cut] {
			if b == '\n' {
				complete++
			}
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-000001.jsonl"), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir)
		if err != nil {
			t.Fatalf("cut at byte %d/%d: open failed: %v", cut, len(data), err)
		}
		if s2.Len() != complete {
			t.Fatalf("cut at byte %d/%d: recovered %d records, want the %d complete lines",
				cut, len(data), s2.Len(), complete)
		}
		for i := 0; i < complete; i++ {
			if _, ok := s2.Get(fmt.Sprintf("k%d", i)); !ok {
				t.Fatalf("cut at byte %d: acked record k%d lost", cut, i)
			}
		}
		// A recovered store accepts writes again: the re-sweep path.
		put(t, s2, "resweep", "fft", "tiny", "dev0", 1)
		s2.Close()
	}
}

// TestCorruptInteriorLineIsAnError: a bad line that is not the torn tail
// fails Open, and the error names the file and the first bad line in file
// order, counting blank lines.
func TestCorruptInteriorLineIsAnError(t *testing.T) {
	const good = `{"key":"k","value":1}`
	for _, c := range []struct {
		name, data, want string
	}{
		{"malformed", "not json\n" + good + "\n", "line 1: invalid character"},
		{"blank line counted", good + "\n\nnot json\n" + good + "\n{\"key\":\n" + good + "\n", "line 3: invalid character"},
		{"empty key first", good + "\n{\"key\":\"\",\"value\":1}\nnot json\n", "line 2: record with empty key"},
		{"malformed first", good + "\nnot json\n{\"key\":\"\",\"value\":1}\n", "line 2: invalid character"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "seg-000001.jsonl")
			if err := os.WriteFile(path, []byte(c.data), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Open(dir)
			if err == nil {
				t.Fatal("corrupt interior line silently accepted")
			}
			if want := "store: " + path + " " + c.want; !strings.HasPrefix(err.Error(), want) {
				t.Fatalf("Open error %q, want prefix %q", err, want)
			}
		})
	}
}

// TestReplayAcrossBatches replays a segment several replay batches long:
// lines straddle batch boundaries, one line is longer than a batch, blank
// lines sit between records, and a key is rewritten in a later batch.
// Every record must come back, and a bad line past the first batch must
// still be reported by its line number in the file.
func TestReplayAcrossBatches(t *testing.T) {
	var data []byte
	want := map[string]string{}
	line := 0
	add := func(key string, value string) {
		rec, err := json.Marshal(Record{Key: key, Schema: 1, Value: json.RawMessage(value)})
		if err != nil {
			t.Fatal(err)
		}
		data = append(append(data, rec...), '\n')
		want[key] = value
		line++
	}
	for i := 0; len(data) < 3*replayBatch; i++ {
		// Values from ~1 KB to ~12 KB, so boundaries fall mid-line.
		add(fmt.Sprintf("k%d", i), `"`+strings.Repeat("x", 1000+(i*997)%11000)+`"`)
		if i%50 == 0 {
			data = append(data, " \n"...)
			line++
		}
		if i == 100 {
			add("long", `"`+strings.Repeat("y", replayBatch+100)+`"`)
		}
	}
	add("k0", `"rewritten"`)

	dir := t.TempDir()
	path := filepath.Join(dir, "seg-000001.jsonl")
	if err := os.WriteFile(path, append(data, `{"key":"torn"`...), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != len(want) {
		t.Fatalf("Len %d, want %d", s.Len(), len(want))
	}
	for k, v := range want {
		if raw, ok := s.Get(k); !ok || string(raw) != v {
			t.Fatalf("key %s: %d bytes (found %v), want %d", k, len(raw), ok, len(v))
		}
	}
	s.Close()

	bad := append(append([]byte(nil), data...), "not json\n"...)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir)
	if want := fmt.Sprintf("store: %s line %d: invalid character", path, line+1); err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("Open error %v, want prefix %q", err, want)
	}
}

func TestRecordsOrder(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, "3", "fft", "tiny", "gtx1080", 0)
	put(t, s, "1", "crc", "tiny", "i7-6700k", 0)
	put(t, s, "2", "crc", "tiny", "gtx1080", 0)
	recs := s.Records()
	got := ""
	for _, r := range recs {
		got += r.Benchmark + "/" + r.Device + " "
	}
	want := "crc/gtx1080 crc/i7-6700k fft/gtx1080 "
	if got != want {
		t.Fatalf("order %q, want %q", got, want)
	}
}

// TestRecordsStayInOrder drives random runs of Puts — new keys, plain
// overwrites and overwrites that move a key to another benchmark, size or
// device — across reopens over several segments and compactions, and
// after every step requires Records to equal sortRecords over the live
// records and Len to count them.
func TestRecordsStayInOrder(t *testing.T) {
	pick := func(rng *rand.Rand, from ...string) string { return from[rng.Intn(len(from))] }
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		live := map[string]Record{}
		check := func(step string) {
			t.Helper()
			want := make([]*Record, 0, len(live))
			for _, rec := range live {
				want = append(want, &rec)
			}
			sortRecords(want)
			got := s.Records()
			if len(got) != len(want) || s.Len() != len(want) {
				t.Fatalf("seed %d, %s: Records lists %d, Len %d, want %d", seed, step, len(got), s.Len(), len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				if g.Key != w.Key || g.Benchmark != w.Benchmark || g.Size != w.Size || g.Device != w.Device || string(g.Value) != string(w.Value) {
					t.Fatalf("seed %d, %s: Records[%d] = %+v, want %+v", seed, step, i, *g, *w)
				}
			}
		}
		moved := false
		for round := 0; round < 4; round++ {
			for i := 0; i < 40; i++ {
				rec := Record{
					Key:       fmt.Sprintf("k%03d", rng.Intn(1000)),
					Benchmark: pick(rng, "crc", "fft", "nw"),
					Size:      pick(rng, "tiny", "small"),
					Device:    pick(rng, "gtx1080", "i7-6700k", "k20m"),
					Schema:    1,
				}
				if len(live) > 0 && rng.Intn(2) == 0 {
					// Overwrite a live key: keep its coordinate, or move it.
					keys := make([]string, 0, len(live))
					for k := range live {
						keys = append(keys, k)
					}
					sort.Strings(keys)
					old := live[keys[rng.Intn(len(keys))]]
					rec.Key = old.Key
					if rng.Intn(2) == 0 {
						rec.Benchmark, rec.Size, rec.Device = old.Benchmark, old.Size, old.Device
					}
					moved = moved || rec.Benchmark != old.Benchmark || rec.Size != old.Size || rec.Device != old.Device
				}
				rec.Value = json.RawMessage(fmt.Sprintf("%d", rng.Intn(1e6)))
				if err := s.Put(rec); err != nil {
					t.Fatal(err)
				}
				live[rec.Key] = rec
				check(fmt.Sprintf("round %d put %d", round, i))
			}
			if round == 2 {
				if segs, _ := filepath.Glob(filepath.Join(dir, segmentGlob)); len(segs) != 3 {
					t.Fatalf("seed %d: %d segments before compaction, want one per handle", seed, len(segs))
				}
				if err := s.Compact(); err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("round %d compact", round))
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s, err = Open(dir); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("round %d reopen", round))
		}
		if !moved {
			t.Fatalf("seed %d: no overwrite moved a key to another coordinate", seed)
		}
		s.Close()
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const writers, keys = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				// Overlapping key space across writers.
				key := fmt.Sprintf("k%d", k)
				put(t, s, key, "crc", "tiny", "gtx1080", w)
				if _, ok := s.Get(key); !ok {
					t.Errorf("key %s lost", key)
					return
				}
				s.Len()
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != keys {
		t.Fatalf("Len = %d, want %d", s.Len(), keys)
	}
}

// TestConcurrentPutAndCompact: a Put racing a Compact must never be lost —
// each record lands either in the snapshot or in a post-compact segment,
// never in a deleted file only.
func TestConcurrentPutAndCompact(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			put(t, s, fmt.Sprintf("k%d", i), "crc", "tiny", "gtx1080", i)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := s.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != n {
		t.Fatalf("Len after reopen = %d, want %d — records lost across compaction", s2.Len(), n)
	}
}

func TestFingerprintDeterminismAndSensitivity(t *testing.T) {
	type opts struct {
		Samples int
		Seed    int64
	}
	a := Fingerprint("cell", 1, "crc", "tiny", opts{8, 1})
	b := Fingerprint("cell", 1, "crc", "tiny", opts{8, 1})
	if a != b {
		t.Fatalf("fingerprint not deterministic: %s vs %s", a, b)
	}
	if len(a) != 32 {
		t.Fatalf("fingerprint length %d, want 32 hex chars", len(a))
	}
	distinct := map[string]bool{a: true}
	for _, other := range []string{
		Fingerprint("cell", 2, "crc", "tiny", opts{8, 1}),  // schema bump
		Fingerprint("cell", 1, "fft", "tiny", opts{8, 1}),  // benchmark
		Fingerprint("cell", 1, "crc", "small", opts{8, 1}), // size
		Fingerprint("cell", 1, "crc", "tiny", opts{16, 1}), // options
		Fingerprint("cell", 1, "crc", "tiny", opts{8, 2}),  // seed
		Fingerprint("cell", 1, "crcti", "ny", opts{8, 1}),  // part-boundary shift
	} {
		if distinct[other] {
			t.Fatalf("fingerprint collision: %s", other)
		}
		distinct[other] = true
	}
}
