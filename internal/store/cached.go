package store

import (
	"encoding/json"
	"sync/atomic"

	"opendwarfs/internal/obs"
	"opendwarfs/internal/store/slotcache"
)

// CachedStore wraps a Store with the zero-copy slot cache: a store hit
// served through GetDecoded returns the shared decoded cell instead of
// re-parsing its JSONL payload. Slots live in the process-global slotcache
// registry keyed by the store directory's file identity, so every
// CachedStore over one directory — and every Session, job and query
// handler behind them — shares one decoded copy of each cell.
//
// Writes invalidate: Put drops the written key's slot (the payload
// changed), Compact and CompactIfOver drop every slot (conservatively —
// compaction rewrites the backing files out from under any other handle's
// raw reads). Close closes the inner store and releases the slot-cache
// handle; the shared slots survive as long as any other handle holds the
// same identity.
type CachedStore struct {
	inner *Store
	slots slotcache.Cache

	hits, misses, evictions atomic.Int64

	// Metric handles, set by Instrument; nil (no-op) by default.
	mHits, mMisses, mEvictions *obs.Counter
}

// CacheStats is a point-in-time snapshot of a CachedStore's traffic.
type CacheStats struct {
	Hits, Misses, Evictions int64
}

// Cached wraps inner with the slot cache. The cache identity is the
// store's directory, so separate handles over the same directory share
// decoded slots.
func Cached(inner *Store) *CachedStore {
	return &CachedStore{inner: inner, slots: slotcache.Acquire(slotcache.FileIdentity(inner.dir))}
}

// Instrument registers the slot-cache counters on reg —
// slotcache_hits_total, slotcache_misses_total, slotcache_evictions_total
// — and forwards to the inner store's Instrument, so one call wires the
// whole read/write stack. A nil registry de-instruments.
func (c *CachedStore) Instrument(reg *obs.Registry) {
	c.mHits = reg.Counter(mSlotHitsTotal)
	c.mMisses = reg.Counter(mSlotMissesTotal)
	c.mEvictions = reg.Counter(mSlotEvictionsTotal)
	c.inner.Instrument(reg)
}

// Slot-cache metric names (obsnames-checked).
const (
	mSlotHitsTotal      = "slotcache_hits_total"
	mSlotMissesTotal    = "slotcache_misses_total"
	mSlotEvictionsTotal = "slotcache_evictions_total"
)

// Stats returns the cache's hit/miss/eviction counts so far.
func (c *CachedStore) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
}

// GetDecoded serves the decoded form of key's payload: a slot hit returns
// the shared value with zero parsing; a miss reads the raw payload from
// the inner store, decodes it once, publishes the slot and returns it.
// Concurrent missers may decode twice but always converge on one shared
// value. Missing keys are (nil, false, nil); a payload decode error is
// returned without caching, so a later overwrite of the key can recover.
func (c *CachedStore) GetDecoded(key string, decode DecodeFunc) (any, bool, error) {
	if v, ok := c.slots.Get(key); ok {
		c.hits.Add(1)
		c.mHits.Inc()
		return v, true, nil
	}
	raw, ok := c.inner.Get(key)
	if !ok {
		return nil, false, nil
	}
	c.misses.Add(1)
	c.mMisses.Inc()
	v, err := c.slots.GetOrFill(key, func() (any, error) { return decode(raw) })
	if err != nil {
		return nil, false, err
	}
	return v, true, nil
}

// Get returns the raw stored payload; raw reads bypass the slot cache.
func (c *CachedStore) Get(key string) (json.RawMessage, bool) { return c.inner.Get(key) }

// Lookup returns the full record for key, or nil.
func (c *CachedStore) Lookup(key string) *Record { return c.inner.Lookup(key) }

// Put writes through to the inner store and invalidates the key's slot —
// the decoded value no longer matches the payload on disk.
func (c *CachedStore) Put(rec Record) error {
	if err := c.inner.Put(rec); err != nil {
		return err
	}
	if c.slots.Invalidate(rec.Key) {
		c.evictions.Add(1)
		c.mEvictions.Inc()
	}
	return nil
}

// Records returns the inner store's stable listing.
func (c *CachedStore) Records() []*Record { return c.inner.Records() }

// Len returns the inner store's live record count.
func (c *CachedStore) Len() int { return c.inner.Len() }

// Compact garbage-collects the inner store and drops every slot.
func (c *CachedStore) Compact() error {
	err := c.inner.Compact()
	c.evict(c.slots.InvalidateAll())
	return err
}

// DiskBytes reports the inner store's on-disk footprint.
func (c *CachedStore) DiskBytes() (int64, error) { return c.inner.DiskBytes() }

// CompactIfOver bounds the inner store's footprint, dropping every slot
// when a compaction actually ran.
func (c *CachedStore) CompactIfOver(maxBytes int64) (bool, error) {
	compacted, err := c.inner.CompactIfOver(maxBytes)
	if compacted {
		c.evict(c.slots.InvalidateAll())
	}
	return compacted, err
}

func (c *CachedStore) evict(n int) {
	if n > 0 {
		c.evictions.Add(int64(n))
		c.mEvictions.Add(int64(n))
	}
}

// SegmentsOf reports how many snapshot/segment files back a cached store.
func SegmentsOf(c *CachedStore) int { return c.inner.Segments() }

// Close closes the inner store and releases this handle's reference on the
// shared slot table.
func (c *CachedStore) Close() error {
	err := c.inner.Close()
	c.slots.Close()
	return err
}

var (
	_ CellStore = (*CachedStore)(nil)
	_ Decoded   = (*CachedStore)(nil)
)
