package series

// The streaming wire format. A subscriber receives one absolute
// snapshot Point (every tracked series, histogram bounds included) and
// then one delta Point per sample. Summing counter and bucket deltas
// onto the snapshot reproduces the registry exactly at every sample
// boundary; gauges are carried absolute in every frame. A reconnecting
// subscriber asks Since(lastSeq): if the ring still holds the missed
// samples they replay as deltas, otherwise the subscriber is handed a
// fresh snapshot and must reset its accumulator (Point.Snapshot marks
// which).

// WireHist is one histogram's movement in a Point: deltas in a delta
// frame, absolutes in a snapshot frame (which alone carries Bounds).
type WireHist struct {
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []int64   `json:"buckets"`
}

// Point is one streamed sample. Delta frames elide counters that did
// not move and histograms with no observations; gauges are always
// present with their absolute sampled value. encoding/json renders the
// maps key-sorted, so equal samples serialize identically.
type Point struct {
	Seq      uint64              `json:"seq"`
	UnixNs   int64               `json:"unix_ns"`
	Snapshot bool                `json:"snapshot,omitempty"`
	Counters map[string]int64    `json:"counters,omitempty"`
	Gauges   map[string]float64  `json:"gauges,omitempty"`
	Hists    map[string]WireHist `json:"hists,omitempty"`
}

// SnapshotPoint returns the absolute state of every tracked series as
// of the latest sample — the first frame of a fresh subscription, and
// the re-sync frame when a reconnect outruns the ring. Before any
// sample it returns an empty snapshot with Seq 0.
func (r *Recorder) SnapshotPoint() Point {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := Point{Seq: r.seq, Snapshot: true}
	if r.n > 0 {
		p.UnixNs = r.at(r.n - 1).unixNs
	}
	if len(r.counterNames) > 0 {
		p.Counters = make(map[string]int64, len(r.counterNames))
		for i, name := range r.counterNames {
			p.Counters[name] = r.counterPrev[i]
		}
	}
	if len(r.gaugeNames) > 0 {
		p.Gauges = make(map[string]float64, len(r.gaugeNames))
		for i, name := range r.gaugeNames {
			p.Gauges[name] = r.gaugeLast[i]
		}
	}
	if len(r.histNames) > 0 {
		p.Hists = make(map[string]WireHist, len(r.histNames))
		for i, name := range r.histNames {
			col := r.histCols[i]
			p.Hists[name] = WireHist{
				Count:   col.prevCount,
				Sum:     col.prevSum,
				Bounds:  append([]float64(nil), col.bounds...),
				Buckets: append([]int64(nil), col.prev...),
			}
		}
	}
	return p
}

// Since returns the delta Points of every retained sample with sequence
// number greater than afterSeq, oldest first; Since of the newest
// sequence number returns nothing. resync is true when afterSeq has
// already fallen off the ring, or is ahead of the newest sample (a
// sequence number this recorder never issued) — the caller must send a
// fresh SnapshotPoint instead (the intervening deltas are gone, or were
// never this recorder's).
func (r *Recorder) Since(afterSeq uint64) (pts []Point, resync bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if afterSeq > r.seq {
		return nil, true
	}
	if afterSeq == r.seq {
		return nil, false
	}
	oldest := r.seq - uint64(r.n) + 1
	if afterSeq+1 < oldest {
		return nil, true
	}
	for i := int(afterSeq + 1 - oldest); i < r.n; i++ {
		pts = append(pts, r.wirePointLocked(r.at(i)))
	}
	return pts, false
}

// wirePointLocked renders one ring sample as a delta frame. Callers
// hold r.mu.
func (r *Recorder) wirePointLocked(s *sample) Point {
	p := Point{Seq: s.seq, UnixNs: s.unixNs}
	for i, d := range s.counters {
		if d == 0 {
			continue
		}
		if p.Counters == nil {
			p.Counters = make(map[string]int64)
		}
		p.Counters[r.counterNames[i]] = d
	}
	if len(s.gauges) > 0 {
		p.Gauges = make(map[string]float64, len(s.gauges))
		for i, v := range s.gauges {
			p.Gauges[r.gaugeNames[i]] = v
		}
	}
	for i := range s.hists {
		hd := &s.hists[i]
		if hd.count == 0 {
			continue
		}
		if p.Hists == nil {
			p.Hists = make(map[string]WireHist)
		}
		p.Hists[r.histNames[i]] = WireHist{
			Count:   hd.count,
			Sum:     hd.sum,
			Buckets: append([]int64(nil), hd.buckets...),
		}
	}
	return p
}
