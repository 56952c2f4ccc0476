package store

// The CellStore interface is the seam between the persistence layer and
// everything that reads or writes measured cells: the harness's incremental
// grid runs, predict's training path, the scheduler's cost provider and the
// dwarfserve query surface all take a CellStore. There is one backing, a
// store directory (*Store); the interface lets an optional store field be
// nil and lets callers wrap the store, as the repository benchmark does to
// time its calls.

import "encoding/json"

// CellStore is the persistent fingerprint → record map every consumer
// programs against. Implementations must be safe for concurrent use.
type CellStore interface {
	// Get returns the stored payload for key. The returned bytes must not
	// be modified.
	Get(key string) (json.RawMessage, bool)
	// GetDecoded returns key's payload decoded by decode: (value, true,
	// nil) when the key exists, (nil, false, nil) when it does not, and a
	// non-nil error when the payload does not decode. The value may be
	// shared with every other reader of the key (see Store.GetDecoded).
	GetDecoded(key string, decode DecodeFunc) (any, bool, error)
	// Put persists the record and publishes it (last write wins).
	Put(rec Record) error
	// Records returns a stable listing of every live record, sorted by
	// (benchmark, size, device, key).
	Records() []*Record
	// Close releases the store's file handles. The store must not be used
	// afterwards.
	Close() error
}

// DecodeFunc turns a stored payload into its decoded form. Decoders must
// return a value that is immutable from the caller's point of view: the
// store hands the same decoded value to every subsequent reader.
type DecodeFunc func(raw json.RawMessage) (any, error)

var _ CellStore = (*Store)(nil)
