// Package store persists measured grid cells across processes. Every cell
// is keyed by a deterministic content fingerprint (see fingerprint.go) and
// written as one JSON line to an append-only segment file; opening a store
// replays the compacted snapshot and then every segment in name order, so
// later writes win and a store survives crashes mid-append (a torn final
// line without a newline is discarded, anything else is an error).
//
// The in-memory index is sharded: readers and writers of different keys
// proceed concurrently on separate shard locks, and the segment append path
// holds its own mutex only for the file write. Compact rewrites the live
// record set into a fresh snapshot and deletes the replayed segments. Each
// shard also memoises the decoded form of its records (see GetDecoded), so
// a store hit is served without re-parsing its payload.
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

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
}

const nShards = 16

type shard struct {
	mu   sync.RWMutex
	recs map[string]*Record
	// slots holds the value GetDecoded decoded from recs[key]. Put drops
	// the written key's slot under the same lock that publishes the record,
	// so a slot never outlives the payload it was decoded from.
	slots map[string]any
}

// Store is a persistent fingerprint → record map backed by JSONL segments.
// All methods are safe for concurrent use.
type Store struct {
	dir    string
	shards [nShards]shard

	// wmu serialises segment appends and compaction.
	wmu      sync.Mutex
	seg      *os.File
	segPath  string
	replayed []string // snapshot + segment files loaded at Open, compaction input

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
		if err := json.Unmarshal(l.text, &recs[i]); err != nil {
			l.err = fmt.Errorf("store: %s line %d: %w", path, l.no, err)
		} else if recs[i].Key == "" {
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
// index. Re-putting an existing key overwrites it (last write wins).
func (s *Store) Put(rec Record) error {
	if rec.Key == "" {
		return fmt.Errorf("store: put with empty key")
	}
	line, err := json.Marshal(&rec)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	line = append(line, '\n')

	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.seg == nil {
		if err := s.openSegmentLocked(); err != nil {
			return err
		}
	}
	if _, err := s.seg.Write(line); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.appends.Inc()
	// Publish while still holding wmu: the index update must be ordered
	// with the segment append, or a concurrent Compact could snapshot
	// without this record yet delete the segment that carries it, and two
	// racing Puts of one key could leave the index disagreeing with the
	// on-disk last-write-wins replay. wmu → shard lock is the only nesting
	// order in the package (Compact's Records() nests the same way), so
	// this cannot deadlock.
	sh := s.shard(rec.Key)
	sh.mu.Lock()
	sh.recs[rec.Key] = &rec
	_, evicted := sh.slots[rec.Key]
	delete(sh.slots, rec.Key)
	sh.mu.Unlock()
	if evicted {
		s.evictions.Add(1)
		s.mEvictions.Inc()
	}
	return nil
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
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.recs)
		sh.mu.RUnlock()
	}
	return n
}

// sortRecords sorts recs into the canonical listing order of Records:
// (benchmark, size, device) with the fingerprint key as the final
// tiebreak. The key makes the order a total one — two records can never
// compare equal — so the listing is deterministic regardless of map
// iteration order or segment replay order.
func sortRecords(recs []*Record) {
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.Benchmark != b.Benchmark {
			return a.Benchmark < b.Benchmark
		}
		if a.Size != b.Size {
			return a.Size < b.Size
		}
		if a.Device != b.Device {
			return a.Device < b.Device
		}
		return a.Key < b.Key
	})
}

// Records returns a stable listing of every live record in the canonical
// sortRecords order — the order the serving layer and exports present
// cells in.
func (s *Store) Records() []*Record {
	var out []*Record
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, rec := range sh.recs {
			out = append(out, rec)
		}
		sh.mu.RUnlock()
	}
	sortRecords(out)
	return out
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
	w := bufio.NewWriter(tmp)
	enc := json.NewEncoder(w)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("store: %w", err)
		}
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
