package harness

import "opendwarfs/internal/obs"

// Metric names registered by the harness, one const per series
// (obsnames-checked: a typo here is one declaration away, not one call
// site away).
const (
	mCellsTotal       = "harness_cells_total"
	mStoreHitsTotal   = "harness_store_hits_total"
	mStoreMissesTotal = "harness_store_misses_total"
	mRetriesTotal     = "harness_retries_total"
	mFailedCellsTotal = "harness_failed_cells_total"
	mQuarantinesTotal = "harness_quarantines_total"
	mDeviceCellsTotal = "harness_device_cells_total"
	mPreparesTotal    = "harness_prepares_total"
	mPrepHitsTotal    = "harness_prep_store_hits_total"
	lblDevice         = "device"
	mCellNs           = "harness_cell_ns"
	mPrepareNs        = "harness_prepare_ns"
	mMeasureNs        = "harness_measure_ns"
	mStoreDecodeNs    = "store_decode_ns"
)

// gridMetrics caches one run's metric handles so the hot path never
// resolves names. Built from a nil registry every field is a nil metric
// whose methods no-op — instrumentation call sites stay unconditional.
type gridMetrics struct {
	// Counters mirror the event stream one-for-one (bumped in send,
	// under the emit mutex): cells = cell_done + store_hit events,
	// hits/misses = the store counters, retries/failed/quarantines =
	// their fault events. They therefore agree exactly with the run's
	// Grid — StoreHits, StoreMisses, Retries, len(Failed),
	// len(Quarantined) — partial grids included.
	cells       *obs.Counter // harness_cells_total
	hits        *obs.Counter // harness_store_hits_total
	misses      *obs.Counter // harness_store_misses_total
	retries     *obs.Counter // harness_retries_total
	failed      *obs.Counter // harness_failed_cells_total
	quarantines *obs.Counter // harness_quarantines_total

	// Preparations by source, bumped once per row inside the prepare
	// cache's sync.Once (cache.go): successful Prepare runs, and rows
	// decoded from the store instead. With a store attached every
	// Prepare is appended and so is every measured cell, so
	// store_appends_total = harness_store_misses_total +
	// harness_prepares_total.
	prepares      *obs.Counter // harness_prepares_total
	prepStoreHits *obs.Counter // harness_prep_store_hits_total

	// reg resolves the device-labelled completion counter
	// (harness_device_cells_total{device=...}) per completed cell — once
	// per cell, not per sample, so the label set stays bounded by the
	// fleet. Nil when the grid is uninstrumented.
	reg *obs.Registry

	cellNs    *obs.Histogram // harness_cell_ns: wall-clock per completed cell
	prepareNs *obs.Histogram // harness_prepare_ns: Prepare incl. cache and store hits
	measureNs *obs.Histogram // harness_measure_ns: one Measure attempt
	decodeNs  *obs.Histogram // store_decode_ns: store-hit decode
}

func newGridMetrics(r *obs.Registry) gridMetrics {
	return gridMetrics{
		reg:           r,
		cells:         r.Counter(mCellsTotal),
		hits:          r.Counter(mStoreHitsTotal),
		misses:        r.Counter(mStoreMissesTotal),
		retries:       r.Counter(mRetriesTotal),
		failed:        r.Counter(mFailedCellsTotal),
		quarantines:   r.Counter(mQuarantinesTotal),
		prepares:      r.Counter(mPreparesTotal),
		prepStoreHits: r.Counter(mPrepHitsTotal),
		cellNs:        r.Histogram(mCellNs, nil),
		prepareNs:     r.Histogram(mPrepareNs, nil),
		measureNs:     r.Histogram(mMeasureNs, nil),
		decodeNs:      r.Histogram(mStoreDecodeNs, nil),
	}
}

// deviceCells bumps the per-device completion counter — the lane
// throughput series dwarftop renders. No-op when uninstrumented.
func (m *gridMetrics) deviceCells(device string) {
	if m.reg == nil || device == "" {
		return
	}
	m.reg.Counter(obs.Name(mDeviceCellsTotal, lblDevice, device)).Inc()
}
