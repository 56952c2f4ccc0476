// Package store persists measured grid cells across processes. Every cell
// is keyed by a deterministic content fingerprint (see fingerprint.go) and
// written as one JSON line to an append-only segment file; opening a store
// replays the compacted snapshot and then every segment in name order, so
// later writes win and a store survives crashes mid-append (a torn final
// line without a newline is discarded, anything else is an error).
//
// A line is json.Marshal's form of a Record. Put and Compact frame it by
// hand when encoding/json would write the header strings as their own bytes
// and copy the payload unchanged, which one scanValue pass over the payload
// decides; any other record goes through json.Marshal. Open parses each
// line in that form once, checking its payload with the same scanValue
// pass (readLine). Any other line, such as one edited by hand, is parsed by
// json.Unmarshal into a Record, which accepts the same lines and reads the
// same record.
//
// The in-memory index is sharded: readers and writers of different keys
// proceed concurrently on separate shard locks, and the segment append path
// holds its own mutex only for the file write. Beside the index, the store
// keeps every live record in listing order, so listing the store copies a
// slice instead of sorting it. Compact rewrites the live record set into a
// fresh snapshot and deletes the replayed segments. Each shard also
// memoises the decoded form of its records (see GetDecoded), so a store hit
// is served without re-parsing its payload.
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"opendwarfs/internal/obs"
	"opendwarfs/internal/par"
)

const (
	snapshotName = "snapshot.jsonl"
	segmentGlob  = "seg-*.jsonl"
)

// Record is one stored cell: the fingerprint key, enough metadata to list
// and filter without decoding, and the opaque JSON payload.
type Record struct {
	Key       string          `json:"key"`
	Benchmark string          `json:"benchmark,omitempty"`
	Size      string          `json:"size,omitempty"`
	Device    string          `json:"device,omitempty"`
	Schema    int             `json:"schema,omitempty"`
	Value     json.RawMessage `json:"value"`

	// Decoded, when a writer sets it, is the value its readers' DecodeFunc
	// returns for Value: Put publishes it as the key's decoded slot, so the
	// writer's own reads skip the decode. It is never written to disk, and
	// the record Put publishes does not keep it.
	Decoded any `json:"-"`
}

const nShards = 16

type shard struct {
	mu   sync.RWMutex
	recs map[string]*Record
	// slots holds the value GetDecoded decoded from recs[key], or the
	// Decoded a Put of the key was given. Put replaces the written key's
	// slot under the same lock that publishes the record, so a slot never
	// outlives the payload it stands for.
	slots map[string]any
}

// Store is a persistent fingerprint → record map backed by JSONL segments.
// All methods are safe for concurrent use.
type Store struct {
	dir    string
	shards [nShards]shard

	// listing holds every live record in sortRecords order. Put edits it
	// under wmu and lmu; readers hold lmu only.
	lmu     sync.RWMutex
	listing []*Record

	// wmu serialises segment appends and compaction.
	wmu     sync.Mutex
	seg     *os.File
	segPath string
	// replayed lists the files a compaction subsumes: the snapshot and
	// segments loaded at Open, and any segment a failed write retired.
	replayed []string
	line     bytes.Buffer // Put's framed line, reused

	// Decoded-slot traffic, reported by Stats.
	hits, misses, evictions atomic.Int64

	// Metrics, set by Instrument; nil (no-op) by default. The write-path
	// ones are guarded by wmu, which every writer (Put, Compact) already
	// holds; mHits and mMisses are read by GetDecoded without a lock.
	appends, compactions, mEvictions *obs.Counter
	mHits, mMisses                   *obs.Counter
}

// Instrument registers the store's metrics on reg: store_appends_total
// (records appended to segments), store_compactions_total (snapshot
// rewrites) and the decoded-slot counters slotcache_hits_total,
// slotcache_misses_total and slotcache_evictions_total (see GetDecoded).
// Safe to call concurrently with Put and Compact, but not with GetDecoded:
// instrument a store before its readers start. A nil registry
// de-instruments.
func (s *Store) Instrument(reg *obs.Registry) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.appends = reg.Counter(mAppendsTotal)
	s.compactions = reg.Counter(mCompactionsTotal)
	s.mEvictions = reg.Counter(mSlotEvictionsTotal)
	s.mHits = reg.Counter(mSlotHitsTotal)
	s.mMisses = reg.Counter(mSlotMissesTotal)
}

// Write-path metric names (obsnames-checked).
const (
	mAppendsTotal     = "store_appends_total"
	mCompactionsTotal = "store_compactions_total"
)

// Open loads (creating if necessary) the store at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir}
	for i := range s.shards {
		s.shards[i].recs = make(map[string]*Record)
		s.shards[i].slots = make(map[string]any)
	}

	var files []string
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err == nil {
		files = append(files, filepath.Join(dir, snapshotName))
	}
	segs, err := filepath.Glob(filepath.Join(dir, segmentGlob))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	sort.Strings(segs)
	files = append(files, segs...)
	var rp replayer
	for _, f := range files {
		if err := s.replay(f, &rp); err != nil {
			return nil, err
		}
	}
	s.replayed = files
	n := 0
	for i := range s.shards {
		n += len(s.shards[i].recs)
	}
	s.listing = make([]*Record, 0, n)
	for i := range s.shards {
		for _, rec := range s.shards[i].recs {
			s.listing = append(s.listing, rec)
		}
	}
	sortRecords(s.listing)
	return s, nil
}

// replayBatch bounds the bytes of whole lines Open reads and parses at a
// time, and so the memory replay uses beyond the records it keeps. A line
// longer than the batch is read whole.
const replayBatch = 1 << 20

// replayer is Open's scratch space, reused batch after batch and file
// after file: the bytes read and the non-blank lines found in them.
type replayer struct {
	buf   []byte
	lines []replayLine
}

// replayLine is one non-blank line of a batch, with its trailing newline,
// its 1-based line number in its file and the error its parse returned.
type replayLine struct {
	text []byte
	no   int
	err  error
}

// replay loads one JSONL file into the index, later lines overriding
// earlier ones. It reads whole lines in batches of up to replayBatch bytes;
// applyBatch parses a batch on every core and applies it in line order. A
// torn final line (no trailing newline, from a crash mid-append) is
// silently dropped; a malformed interior line is an error.
func (s *Store) replay(path string, rp *replayer) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("store: %s: %w", path, err)
	}
	// A small file gets a small buffer; a file that grows while it is read
	// is still read to its end.
	if want := int(min(replayBatch, max(fi.Size(), 1))); len(rp.buf) < want {
		rp.buf = make([]byte, want)
	}
	lineNo, tail := 0, 0 // lines consumed so far; bytes of an unfinished line at the front of buf
	for {
		if tail == len(rp.buf) {
			rp.buf = append(rp.buf, make([]byte, len(rp.buf))...) // one line fills the buffer
		}
		n, err := io.ReadFull(f, rp.buf[tail:])
		eof := err == io.EOF || err == io.ErrUnexpectedEOF
		if err != nil && !eof {
			return fmt.Errorf("store: %s: %w", path, err)
		}
		filled := tail + n
		end := bytes.LastIndexByte(rp.buf[:filled], '\n') + 1
		if err := s.applyBatch(path, rp, rp.buf[:end], &lineNo); err != nil {
			return err
		}
		tail = copy(rp.buf, rp.buf[end:filled])
		if eof {
			return nil // buf[:tail] is a torn tail write, if anything: discard
		}
	}
}

// applyBatch parses batch, whole newline-terminated lines numbered on from
// *lineNo, into records on every core, then publishes them in line order,
// so a later line wins and the first bad line in file order is the one
// reported, whichever parse finished first. Blank lines are skipped but
// counted.
func (s *Store) applyBatch(path string, rp *replayer, batch []byte, lineNo *int) error {
	rp.lines = rp.lines[:0]
	for len(batch) > 0 {
		i := bytes.IndexByte(batch, '\n') + 1
		line := batch[:i]
		batch = batch[i:]
		*lineNo++
		if len(bytes.TrimSpace(line)) > 0 {
			rp.lines = append(rp.lines, replayLine{text: line, no: *lineNo})
		}
	}
	recs := make([]Record, len(rp.lines))
	par.For(0, len(rp.lines), func(i int) {
		l := &rp.lines[i]
		if !readLine(l.text, &recs[i]) {
			if err := json.Unmarshal(l.text, &recs[i]); err != nil {
				l.err = fmt.Errorf("store: %s line %d: %w", path, l.no, err)
				return
			}
		}
		if recs[i].Key == "" {
			l.err = fmt.Errorf("store: %s line %d: record with empty key", path, l.no)
		}
	})
	for i := range rp.lines {
		if err := rp.lines[i].err; err != nil {
			return err
		}
		rec := &recs[i]
		s.shard(rec.Key).recs[rec.Key] = rec
	}
	return nil
}

// readLine parses line, one newline-terminated line as Put writes it, into
// rec with one scan of its payload. Put's line is json.Marshal's form of a
// Record: {"key":…, then "benchmark", "size" and "device" (each non-empty)
// and "schema" (non-zero), each present or absent in that order, then
// ,"value":, the payload and the line's final '}'. The header strings are
// read by headerString, and the payload must be as
// json.Marshal writes it — valid, with no whitespace outside its strings
// and nothing encoding/json escapes — which one scanValue pass decides; it
// is copied, because replay reuses its batch buffer. readLine reports
// false, leaving rec alone, at the first byte outside that form; the
// caller then parses the line with encoding/json, which decodes the same
// record from any line readLine accepts.
func readLine(line []byte, rec *Record) bool {
	b, ok := bytes.CutPrefix(line, []byte(`{"key":`))
	if !ok {
		return false
	}
	var r Record
	if r.Key, b, ok = headerString(b); !ok {
		return false
	}
	for _, f := range [...]struct {
		name string
		dst  *string
	}{{`,"benchmark":`, &r.Benchmark}, {`,"size":`, &r.Size}, {`,"device":`, &r.Device}} {
		if rest, found := bytes.CutPrefix(b, []byte(f.name)); found {
			if *f.dst, b, ok = headerString(rest); !ok || *f.dst == "" {
				return false
			}
		}
	}
	if rest, found := bytes.CutPrefix(b, []byte(`,"schema":`)); found {
		// json.Marshal writes an int as strconv.Itoa does.
		i := bytes.IndexByte(rest, ',')
		if i < 0 {
			return false
		}
		n, err := strconv.Atoi(string(rest[:i]))
		if err != nil || n == 0 || strconv.Itoa(n) != string(rest[:i]) {
			return false
		}
		r.Schema, b = n, rest[i:]
	}
	if b, ok = bytes.CutPrefix(b, []byte(`,"value":`)); !ok {
		return false
	}
	if b, ok = bytes.CutSuffix(b, []byte("}\n")); !ok {
		return false
	}
	if _, verbatim := scanValue(b); !verbatim {
		return false
	}
	r.Value = bytes.Clone(b)
	*rec = r
	return true
}

// headerString reads the JSON string at the front of b, and returns its
// value and the rest of b: its own bytes when it has no escape and is valid
// UTF-8, else json.Unmarshal's unquoting of the token (json.Marshal escapes
// a quote or a backslash in a header string).
func headerString(b []byte) (string, []byte, bool) {
	if len(b) == 0 || b[0] != '"' {
		return "", nil, false
	}
	end, escaped, _ := scanString(b, 0)
	if end < 0 {
		return "", nil, false
	}
	if s := b[1 : end-1]; !escaped && utf8.Valid(s) {
		return string(s), b[end:], true
	}
	var s string
	if err := json.Unmarshal(b[:end], &s); err != nil {
		return "", nil, false
	}
	return s, b[end:], true
}

// shard returns key's shard of the in-memory index: the key's 32-bit
// FNV-1a hash, mod nShards, computed inline so that a lookup never
// allocates.
func (s *Store) shard(key string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &s.shards[h%nShards]
}

// Get returns the stored payload for key. The returned bytes must not be
// modified.
func (s *Store) Get(key string) (json.RawMessage, bool) {
	sh := s.shard(key)
	sh.mu.RLock()
	rec, ok := sh.recs[key]
	sh.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return rec.Value, true
}

// Put appends the record to the current segment and publishes it in the
// index and the listing. Re-putting an existing key overwrites it (last
// write wins). A set rec.Decoded becomes the key's decoded slot, counted
// as neither a hit nor a miss; otherwise the key's slot is dropped.
//
// A record writeLine can frame is framed into the handle's line buffer, so
// its Put allocates no line; any other goes through json.Marshal, which
// also refuses an invalid payload. A failed write retires the segment: the
// next Put opens a fresh one, so whatever part of the line reached the old
// one stays its torn final line, which Open discards.
func (s *Store) Put(rec Record) error {
	if rec.Key == "" {
		return fmt.Errorf("store: put with empty key")
	}
	framed := frameable(&rec)
	var line []byte
	if !framed {
		var err error
		if line, err = json.Marshal(&rec); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		line = append(line, '\n')
	}
	decoded := rec.Decoded
	rec.Decoded = nil

	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.seg == nil {
		if err := s.openSegmentLocked(); err != nil {
			return err
		}
	}
	if framed {
		s.line.Reset()
		writeLine(&s.line, &rec)
		line = s.line.Bytes()
	}
	if _, err := s.seg.Write(line); err != nil {
		s.seg.Close() // the write's error is the one to report
		s.replayed = append(s.replayed, s.segPath)
		s.seg = nil
		return fmt.Errorf("store: %w", err)
	}
	s.appends.Inc()
	// Publish while still holding wmu: the index update must be ordered
	// with the segment append, or a concurrent Compact could snapshot
	// without this record yet delete the segment that carries it, and two
	// racing Puts of one key could leave the index disagreeing with the
	// on-disk last-write-wins replay. wmu → shard lock and wmu → lmu are
	// the only nesting orders in the package (Compact's Records() nests
	// the same way), so this cannot deadlock.
	sh := s.shard(rec.Key)
	sh.mu.Lock()
	old := sh.recs[rec.Key]
	sh.recs[rec.Key] = &rec
	_, evicted := sh.slots[rec.Key]
	if decoded != nil {
		sh.slots[rec.Key] = decoded
	} else {
		delete(sh.slots, rec.Key)
	}
	sh.mu.Unlock()
	if evicted {
		s.evictions.Add(1)
		s.mEvictions.Inc()
	}
	s.lmu.Lock()
	s.listing = relist(s.listing, old, &rec)
	s.lmu.Unlock()
	return nil
}

// frameable reports whether writeLine can frame rec's line: encoding/json
// writes its key, benchmark, size and device as their own bytes — ASCII
// with no control byte, '"', '\\', '<', '>' or '&' — and copies its payload
// unchanged (scanValue).
func frameable(rec *Record) bool {
	for _, s := range [...]string{rec.Key, rec.Benchmark, rec.Size, rec.Device} {
		for i := 0; i < len(s); i++ {
			if c := s[i]; c >= utf8.RuneSelf || strClass[c] != strPlain {
				return false
			}
		}
	}
	_, verbatim := scanValue(rec.Value)
	return verbatim
}

// lineWriter is what writeLine writes to: Put's line buffer or Compact's
// bufio.Writer. Neither reports an error writeLine must act on: a
// bytes.Buffer cannot fail, and a bufio.Writer keeps its first error for
// Flush.
type lineWriter interface {
	Write([]byte) (int, error)
	WriteString(string) (int, error)
}

// writeLine writes the line json.Marshal frames for rec, which must be
// frameable, and its newline: the fields in Record's order, an empty
// string or a zero schema left out, and the payload as it is.
func writeLine(w lineWriter, rec *Record) {
	w.WriteString(`{"key":"`)
	w.WriteString(rec.Key)
	for _, f := range [...]struct{ name, val string }{
		{`","benchmark":"`, rec.Benchmark}, {`","size":"`, rec.Size}, {`","device":"`, rec.Device},
	} {
		if f.val != "" {
			w.WriteString(f.name)
			w.WriteString(f.val)
		}
	}
	w.WriteString(`"`)
	if rec.Schema != 0 {
		w.WriteString(`,"schema":`)
		w.WriteString(strconv.Itoa(rec.Schema))
	}
	w.WriteString(`,"value":`)
	w.Write(rec.Value)
	w.WriteString("}\n")
}

// relist returns listing, in sortRecords order, with rec in place of old
// (nil for a new key): in place when rec keeps old's position, else by one
// removal and one insertion, each found by binary search.
func relist(listing []*Record, old, rec *Record) []*Record {
	if old != nil {
		i, _ := slices.BinarySearchFunc(listing, old, compareRecords)
		if compareRecords(rec, old) == 0 {
			listing[i] = rec
			return listing
		}
		listing = slices.Delete(listing, i, i+1)
	}
	i, _ := slices.BinarySearchFunc(listing, rec, compareRecords)
	return slices.Insert(listing, i, rec)
}

// openSegmentLocked creates this writer's private append segment. O_EXCL
// plus a retry on the sequence number keeps concurrent processes from
// sharing a file.
func (s *Store) openSegmentLocked() error {
	next := 1
	if segs, err := filepath.Glob(filepath.Join(s.dir, segmentGlob)); err == nil {
		for _, seg := range segs {
			var n int
			name := filepath.Base(seg)
			if _, err := fmt.Sscanf(name, "seg-%d.jsonl", &n); err == nil && n >= next {
				next = n + 1
			}
		}
	}
	for try := 0; try < 10000; try++ {
		path := filepath.Join(s.dir, fmt.Sprintf("seg-%06d.jsonl", next+try))
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
		if err == nil {
			s.seg, s.segPath = f, path
			return nil
		}
		if !os.IsExist(err) {
			return fmt.Errorf("store: %w", err)
		}
	}
	return fmt.Errorf("store: could not allocate a segment in %s", s.dir)
}

// Len returns the number of live records.
func (s *Store) Len() int {
	s.lmu.RLock()
	defer s.lmu.RUnlock()
	return len(s.listing)
}

// sortRecords sorts recs into the canonical listing order of Records:
// (benchmark, size, device) with the fingerprint key as the final
// tiebreak. The key makes the order a total one — two live records can
// never compare equal — so the listing is deterministic regardless of map
// iteration order or segment replay order.
func sortRecords(recs []*Record) {
	slices.SortFunc(recs, compareRecords)
}

// compareRecords orders two records by (benchmark, size, device, key).
func compareRecords(a, b *Record) int {
	if c := strings.Compare(a.Benchmark, b.Benchmark); c != 0 {
		return c
	}
	if c := strings.Compare(a.Size, b.Size); c != 0 {
		return c
	}
	if c := strings.Compare(a.Device, b.Device); c != 0 {
		return c
	}
	return strings.Compare(a.Key, b.Key)
}

// Records returns a stable listing of every live record in the canonical
// sortRecords order — the order the serving layer and exports present
// cells in. The slice is the caller's; the records must not be modified.
func (s *Store) Records() []*Record {
	s.lmu.RLock()
	defer s.lmu.RUnlock()
	return slices.Clone(s.listing)
}

// Compact rewrites the live record set into a fresh snapshot (atomically,
// via rename) and removes the snapshot/segment files it replaces. Records
// appended by this process after Open are folded in; segments created by
// other processes since Open are left untouched. Every decoded slot is
// dropped, conservatively, whether or not the rewrite succeeds.
func (s *Store) Compact() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	defer s.dropSlotsLocked()

	recs := s.Records()
	sort.Slice(recs, func(i, j int) bool { return recs[i].Key < recs[j].Key })

	tmp, err := os.CreateTemp(s.dir, "snapshot-*.tmp")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// 64 KiB a write: the full grid's ~3 MB snapshot takes ~50 write
	// calls, against ~770 at bufio's 4 KiB default.
	w := bufio.NewWriterSize(tmp, 64<<10)
	for _, rec := range recs {
		if frameable(rec) {
			writeLine(w, rec)
			continue
		}
		line, err := json.Marshal(rec)
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("store: %w", err)
		}
		w.Write(line)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, snapshotName)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}

	// Drop the files the snapshot now subsumes: everything replayed at Open
	// plus our own segment.
	obsolete := append([]string(nil), s.replayed...)
	if s.seg != nil {
		s.seg.Close()
		s.seg = nil
		obsolete = append(obsolete, s.segPath)
	}
	for _, f := range obsolete {
		if filepath.Base(f) == snapshotName {
			continue // just replaced in place
		}
		if err := os.Remove(f); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("store: %w", err)
		}
	}
	s.replayed = []string{filepath.Join(s.dir, snapshotName)}
	s.compactions.Inc()
	return nil
}

// Close flushes and closes the append segment. The store must not be used
// afterwards.
func (s *Store) Close() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.seg == nil {
		return nil
	}
	err := s.seg.Close()
	s.seg = nil
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Segments reports how many snapshot/segment files back the store right
// now — a health metric for the serving layer.
func (s *Store) Segments() int {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	n, _, _ := s.diskFootprintLocked()
	return n
}

// DiskBytes reports the store's on-disk footprint: the byte total of the
// snapshot plus every segment file.
func (s *Store) DiskBytes() (int64, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	_, bytes, err := s.diskFootprintLocked()
	return bytes, err
}

// diskFootprintLocked counts and sizes the backing files. Callers hold wmu.
func (s *Store) diskFootprintLocked() (files int, bytes int64, err error) {
	paths := []string{filepath.Join(s.dir, snapshotName)}
	if segs, gerr := filepath.Glob(filepath.Join(s.dir, segmentGlob)); gerr == nil {
		paths = append(paths, segs...)
	}
	for _, p := range paths {
		fi, serr := os.Stat(p)
		if serr != nil {
			if !os.IsNotExist(serr) && err == nil {
				err = fmt.Errorf("store: %w", serr)
			}
			continue
		}
		files++
		bytes += fi.Size()
	}
	return files, bytes, err
}

// CompactIfOver is the size-bounded snapshot: when the snapshot + segment
// footprint exceeds maxBytes, the live record set is rewritten into a
// fresh snapshot and the dead segments are garbage-collected (see
// Compact). Returns whether a compaction ran. A maxBytes ≤ 0 never
// compacts.
func (s *Store) CompactIfOver(maxBytes int64) (bool, error) {
	if maxBytes <= 0 {
		return false, nil
	}
	bytes, err := s.DiskBytes()
	if err != nil {
		return false, err
	}
	if bytes <= maxBytes {
		return false, nil
	}
	return true, s.Compact()
}
