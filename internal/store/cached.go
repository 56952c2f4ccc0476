package store

// The decoded-slot memo: a store hit served through GetDecoded returns the
// value decoded the first time the key was read through this handle instead
// of re-parsing its JSONL payload. Slots belong to one *Store; two handles
// over one directory decode separately, so each reads its own writes.

// CacheStats is a point-in-time snapshot of a store's decoded-slot traffic.
type CacheStats struct {
	Hits, Misses, Evictions int64
}

// Decoded-slot metric names (obsnames-checked).
const (
	mSlotHitsTotal      = "slotcache_hits_total"
	mSlotMissesTotal    = "slotcache_misses_total"
	mSlotEvictionsTotal = "slotcache_evictions_total"
)

// Stats returns the decoded-slot hit/miss/eviction counts so far. A miss is
// a decode of a present key; an eviction is a slot dropped by Put or by a
// compaction.
func (s *Store) Stats() CacheStats {
	return CacheStats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Evictions: s.evictions.Load(),
	}
}

// GetDecoded serves the decoded form of key's payload: a slot hit returns
// the memoised value with zero parsing; a miss decodes the payload and
// publishes the slot. Concurrent missers may decode twice but converge on
// the first-published value, and a decode that raced a Put of the key is
// returned without being published. Missing keys are (nil, false, nil); a
// payload decode error is returned without caching, so a later overwrite
// of the key can recover.
func (s *Store) GetDecoded(key string, decode DecodeFunc) (any, bool, error) {
	sh := s.shard(key)
	sh.mu.RLock()
	v, hit := sh.slots[key]
	rec := sh.recs[key]
	sh.mu.RUnlock()
	if hit {
		s.hits.Add(1)
		s.mHits.Inc()
		return v, true, nil
	}
	if rec == nil {
		return nil, false, nil
	}
	s.misses.Add(1)
	s.mMisses.Inc()
	// Decode outside the lock: it may be expensive and must not block
	// readers of other keys.
	v, err := decode(rec.Value)
	if err != nil {
		return nil, false, err
	}
	sh.mu.Lock()
	if won, ok := sh.slots[key]; ok {
		v = won
	} else if sh.recs[key] == rec {
		sh.slots[key] = v
	}
	sh.mu.Unlock()
	return v, true, nil
}

// dropSlotsLocked drops every decoded slot. Callers hold wmu.
func (s *Store) dropSlotsLocked() {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.slots)
		clear(sh.slots)
		sh.mu.Unlock()
	}
	if n > 0 {
		s.evictions.Add(int64(n))
		s.mEvictions.Add(int64(n))
	}
}

// CachedStore is Store, which memoises decoded cells itself.
//
// Deprecated: use *Store. The name stays only because the repository
// benchmark module (bench/) names it and is changed separately from this
// package.
type CachedStore = Store

// Cached returns s: every Store memoises decoded cells.
//
// Deprecated: use the *Store from Open directly; kept for the benchmark
// module, as CachedStore is.
func Cached(s *Store) *Store { return s }

// SegmentsOf returns s.Segments().
//
// Deprecated: call Segments; kept for the benchmark module, as CachedStore
// is.
func SegmentsOf(s *Store) int { return s.Segments() }
