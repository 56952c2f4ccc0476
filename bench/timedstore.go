package main

import (
	"sync/atomic"
	"time"

	"opendwarfs/internal/store"
)

// timedStore times the store calls a grid run makes. It embeds the
// CachedStore rather than the CellStore interface so every capability the
// harness and the server type-assert on — Decoded above all, which keeps
// store hits on the zero-copy path — is still there.
type timedStore struct {
	*store.CachedStore
	putNs, puts atomic.Int64
	getNs, gets atomic.Int64
}

func (t *timedStore) Put(rec store.Record) error {
	start := time.Now()
	err := t.CachedStore.Put(rec)
	t.putNs.Add(int64(time.Since(start)))
	t.puts.Add(1)
	return err
}

func (t *timedStore) GetDecoded(key string, decode store.DecodeFunc) (any, bool, error) {
	start := time.Now()
	v, ok, err := t.CachedStore.GetDecoded(key, decode)
	t.getNs.Add(int64(time.Since(start)))
	t.gets.Add(1)
	return v, ok, err
}
