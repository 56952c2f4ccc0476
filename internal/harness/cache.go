package harness

import (
	"context"
	"fmt"
	"sync"

	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/obs"
	"opendwarfs/internal/store"
)

// prepKey identifies one device-independent preparation: datasets,
// characterisation traces and verification verdicts depend only on the
// benchmark, its problem size and the generation seed — never on the
// device. Budget- and verification-relevant options are uniform within one
// grid run (GridSpec carries a single Options), so they are deliberately
// not part of the key; the cache is scoped to one RunGrid invocation.
type prepKey struct {
	bench string
	size  string
	seed  int64
}

// prepCache memoises Prepare results so every device of a grid row shares
// one dataset generation, characterisation pass and functional
// verification. Concurrent requests for the same key block on a per-entry
// sync.Once: exactly one goroutine prepares while the rest wait, then all
// share the same *Preparation.
//
// With a store attached the cache sits in front of a persisted tier: a
// miss first reads the row's stored preparation (prepRecordKey) and runs
// Prepare only when that record is absent or does not decode, appending
// the result. Rows prepared by any earlier run, in any process, are
// therefore never prepared again.
type prepCache struct {
	mu      sync.Mutex
	entries map[prepKey]*prepEntry

	st store.CellStore // nil: memoise in memory only
	// prepares counts Prepare runs that succeeded (and, with st, were
	// stored), storeHits preparations decoded from st; each is bumped at
	// most once per row, inside the entry's sync.Once.
	prepares, storeHits *obs.Counter
}

type prepEntry struct {
	once sync.Once
	prep *Preparation
	err  error
}

func newPrepCache(st store.CellStore, mo gridMetrics) *prepCache {
	return &prepCache{
		entries:   make(map[prepKey]*prepEntry),
		st:        st,
		prepares:  mo.prepares,
		storeHits: mo.prepStoreHits,
	}
}

// prepare returns the cached preparation for (bench, size, opt.Seed),
// loading or running it exactly once per key. The first caller's ctx
// drives the preparation; if that ctx is cancelled mid-prepare the entry
// caches the cancellation error, which is fine because the cache is
// scoped to one grid run and cancellation ends the whole run.
func (c *prepCache) prepare(ctx context.Context, bench dwarfs.Benchmark, size string, opt Options) (*Preparation, error) {
	key := prepKey{bench: bench.Name(), size: size, seed: opt.Seed}
	c.mu.Lock()
	e := c.entries[key]
	if e == nil {
		e = &prepEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		// A panic escaping once.Do would permanently poison the entry
		// with (nil, nil) for concurrent waiters; surface it as the
		// entry's error instead.
		defer func() {
			if r := recover(); r != nil {
				e.prep, e.err = nil, fmt.Errorf("harness: prepare %s/%s panicked: %v", bench.Name(), size, r)
			}
		}()
		e.prep, e.err = c.load(ctx, bench, size, opt)
	})
	return e.prep, e.err
}

// load is the persisted tier: key → Get → decode, else Prepare → Put,
// the sequence the grid runs for cells. The raw Get bypasses a cached
// store's slot cache, whose counters count cells only; each run decodes a
// row at most once anyway. A failed or cancelled Prepare persists
// nothing, an undecodable record is prepared again and overwritten, and a
// failed Put is the entry's error, as it is a cell's.
func (c *prepCache) load(ctx context.Context, bench dwarfs.Benchmark, size string, opt Options) (*Preparation, error) {
	var key string
	if c.st != nil {
		key = prepRecordKey(bench.Name(), size, opt)
		if raw, ok := c.st.Get(key); ok {
			if p, err := decodePreparation(raw); err == nil {
				p.Benchmark, p.Dwarf, p.Size = bench.Name(), bench.Dwarf(), size
				c.storeHits.Inc()
				return p, nil
			}
		}
	}
	p, err := Prepare(ctx, bench, size, opt)
	if err != nil {
		return nil, err
	}
	if c.st != nil {
		raw, err := encodePreparation(p)
		if err != nil {
			return nil, err
		}
		// Device and Schema stay empty: GridFromStore, the served routes
		// and older binaries list records with a Schema only, so they
		// skip this one without decoding it.
		if err := c.st.Put(store.Record{Key: key, Benchmark: p.Benchmark, Size: p.Size, Value: raw}); err != nil {
			return nil, fmt.Errorf("harness: preparation %s/%s: %w", p.Benchmark, p.Size, err)
		}
	}
	c.prepares.Inc()
	return p, nil
}

// len reports the number of distinct keys prepared so far.
func (c *prepCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
