package harness

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"

	"opendwarfs/internal/par"
	"opendwarfs/internal/sim"
	"opendwarfs/internal/store"
)

// StoreSchemaVersion is the code-schema generation of persisted
// measurements. It participates in every cell fingerprint, so bumping it
// invalidates all previously stored cells at once — do that whenever the
// Measurement encoding or the measurement semantics change incompatibly.
const StoreSchemaVersion = 1

// cellOptions is the subset of Options a measurement actually depends on,
// in fingerprint-stable field order. Seed is keyed separately so the
// fingerprint layout reads (schema, bench, size, seed, device, options).
type cellOptions struct {
	Samples          int
	MinLoopNs        float64
	MaxLoopIters     int
	MaxFunctionalOps float64
	Verify           bool
}

// CellKey fingerprints one benchmark × size × device × options cell. The
// full DeviceSpec is hashed — not just its ID — so editing a catalogue
// entry (clocks, cache sizes, power, …) invalidates exactly that device's
// cells. Identical inputs always map to identical keys, which is what makes
// an unchanged re-sweep a 100% store hit.
func CellKey(bench, size string, spec *sim.DeviceSpec, opt Options) string {
	return store.Fingerprint(
		"opendwarfs/cell", StoreSchemaVersion,
		bench, size, opt.Seed, spec,
		cellOptions{
			Samples:          opt.Samples,
			MinLoopNs:        opt.MinLoopNs,
			MaxLoopIters:     opt.MaxLoopIters,
			MaxFunctionalOps: opt.MaxFunctionalOps,
			Verify:           opt.Verify,
		},
	)
}

// EncodeMeasurement serialises a measurement for the store. Every field of
// Measurement is exported and float64 values round-trip exactly through
// encoding/json's shortest-representation encoder, so a decoded cell is
// value-identical to the measured one — exports built from either are
// byte-identical.
func EncodeMeasurement(m *Measurement) (json.RawMessage, error) {
	raw, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("harness: encode %s/%s/%s: %w", m.Benchmark, m.Size, m.Device.ID, err)
	}
	return raw, nil
}

// DecodeMeasurement deserialises a stored cell.
func DecodeMeasurement(raw json.RawMessage) (*Measurement, error) {
	m := &Measurement{}
	if err := json.Unmarshal(raw, m); err != nil {
		return nil, fmt.Errorf("harness: decode stored measurement: %w", err)
	}
	if m.Device == nil || len(m.KernelNs) == 0 {
		return nil, fmt.Errorf("harness: stored measurement missing device or samples")
	}
	return m, nil
}

// decodeMeasurementSlot adapts DecodeMeasurement to the store's DecodeFunc
// shape — the decoder a store runs at most once per cell, after which every
// reader shares the one decoded *Measurement; a cell the handle's own grid
// run measured is shared as measured, with no decode at all. Shared cells
// are immutable by convention: nothing downstream of a store hit or a
// cell_done writes to a Measurement.
func decodeMeasurementSlot(raw json.RawMessage) (any, error) {
	m, err := DecodeMeasurement(raw)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// GridFromStore reconstructs a Grid from every decodable cell of a store,
// in the store's stable (benchmark, size, device) listing order — the read
// path of dwarfserve and of any tool that wants results without
// re-measuring. Cells are read through GetDecoded, once per listed record,
// so a warm reload from a *store.Store assembles the grid from shared
// decoded cells without re-parsing a single payload. Records written by
// other schema generations are skipped, not errors: they are simply no
// longer addressable.
//
// Warm slots are read inline, in listing order. The first record whose
// slot misses hands the rest of the listing to par.For, which decodes on
// every core into slots addressed by listing index, so a cold assembly
// uses every core and an all-warm one starts no goroutine. The first
// decode error in listing order is the one returned; records listed after
// it may have been read by then.
func GridFromStore(st store.CellStore) (*Grid, error) {
	recs := st.Records()
	cells := make([]*Measurement, len(recs))
	missed := false
	decodeFirst := func(raw json.RawMessage) (any, error) {
		missed = true
		return decodeMeasurementSlot(raw)
	}
	next := 0
	for ; next < len(recs) && !missed; next++ {
		var err error
		if cells[next], err = readCell(st, recs[next], decodeFirst); err != nil {
			return nil, err
		}
	}
	if rest := recs[next:]; len(rest) > 0 {
		var (
			mu       sync.Mutex
			errAt    = len(rest)
			firstErr error
		)
		par.For(0, len(rest), func(i int) {
			var err error
			if cells[next+i], err = readCell(st, rest[i], decodeMeasurementSlot); err != nil {
				mu.Lock()
				if i < errAt {
					errAt, firstErr = i, err
				}
				mu.Unlock()
			}
		})
		if firstErr != nil {
			return nil, firstErr
		}
	}
	cells = slices.DeleteFunc(cells, func(m *Measurement) bool { return m == nil })
	if len(cells) == 0 {
		return &Grid{}, nil
	}
	return &Grid{Measurements: cells}, nil
}

// readCell returns rec's decoded cell, or nil for a record of another
// schema generation or one whose key vanished between the listing and the
// read.
func readCell(st store.CellStore, rec *store.Record, decode store.DecodeFunc) (*Measurement, error) {
	if rec.Schema != StoreSchemaVersion {
		return nil, nil
	}
	v, ok, err := st.GetDecoded(rec.Key, decode)
	if err != nil {
		return nil, fmt.Errorf("harness: store cell %s: %w", rec.Key, err)
	}
	if !ok {
		return nil, nil
	}
	return v.(*Measurement), nil
}
