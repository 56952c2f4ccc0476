// Package predict closes the loop the paper's §7 opens: it learns a
// cross-device runtime model from measured grid cells and evaluates how
// well architecture-independent workload characterisation (AIWC) predicts
// performance on devices a kernel was never run on.
//
// The pipeline is features → forest → cross-validation:
//
//   - Each measured grid cell becomes one training row: the ops-weighted
//     AIWC feature vector of the benchmark's kernels (internal/aiwc),
//     joined with device features derived from sim.DeviceSpec, targeting
//     the natural log of median kernel time.
//   - A deterministic random-forest regressor (forest.go, tree.go) is fit
//     over log-runtime; training parallelises across trees with the same
//     worker-pool discipline as harness.RunGrid and is bitwise-identical
//     at every worker count.
//   - Leave-one-device-out and leave-one-benchmark-out cross-validation
//     (crossval.go) quantify generalisation as per-fold MAPE, both on the
//     log-runtime predictions themselves and after exponentiating back to
//     linear time.
package predict

import (
	"fmt"
	"math"

	"opendwarfs/internal/aiwc"
	"opendwarfs/internal/harness"
	"opendwarfs/internal/sim"
)

// deviceFeatureNames lists the DeviceSpec-derived dimensions appended to
// the AIWC kernel vector, in order.
var deviceFeatureNames = []string{
	"dev_log_peak_gflops", "dev_vector_eff", "dev_scalar_ipc", "dev_clock_ghz",
	"dev_log_cus", "dev_log_lanes",
	"dev_log_dram_gbs", "dev_dram_latency_ns", "dev_log_mlp",
	"dev_log_l1_kib", "dev_log_l2_kib", "dev_log_l3_kib",
	"dev_launch_overhead_us", "dev_transfer_gbs", "dev_is_gpu",
}

// DeviceVector derives the numeric device features the model joins with a
// kernel's AIWC vector: peak rates, geometry, memory system and launch
// costs — the public parameters of the analytical model, not its outputs.
// The order matches deviceFeatureNames.
func DeviceVector(d *sim.DeviceSpec) []float64 {
	gpu := 0.0
	if d.Class.IsGPU() {
		gpu = 1
	}
	return []float64{
		math.Log(d.PeakGFLOPS), d.VectorEff, d.ScalarIPC, d.ClockGHz(),
		math.Log(float64(d.CUs)), math.Log(float64(d.Lanes)),
		math.Log(d.DRAMBandwidthGBs), d.DRAMLatencyNs, math.Log(d.MLP),
		math.Log1p(d.AggregateL1KiB()), math.Log1p(d.AggregateL2KiB()), math.Log1p(d.L3KiB),
		d.LaunchOverheadUs, d.TransferGBs, gpu,
	}
}

// Row is one training example: a measured grid cell flattened to features
// and the log-runtime target.
type Row struct {
	Benchmark string
	Size      string
	Device    string
	Class     string

	// Features is the AIWC kernel vector + log kernel-launch count +
	// device vector, aligned with Dataset.FeatureNames.
	Features []float64
	// MedianNs is the measured median kernel time of the cell.
	MedianNs float64
	// LogNs is the training target: ln(MedianNs).
	LogNs float64
}

// Dataset is the feature matrix assembled from a measurement grid.
type Dataset struct {
	FeatureNames []string
	Rows         []Row
}

// FeatureNames returns the full feature-name list: AIWC kernel dimensions,
// the per-cell launch count, then device dimensions.
func FeatureNames() []string {
	names := aiwc.FeatureNames()
	names = append(names, "log_launches")
	return append(names, deviceFeatureNames...)
}

// Features assembles the model's feature vector for any workload × device
// pair: the ops-weighted AIWC vector of the kernels, the log launch count,
// then the device vector. The device need not have been measured — profiles
// are device-independent, so pairing a measured benchmark's profiles with
// any DeviceSpec yields a valid query point. This is how dwarfserve answers
// /v1/predict for cells absent from the store.
func Features(profiles []*sim.KernelProfile, launches int, dev *sim.DeviceSpec) []float64 {
	v := aiwc.Aggregate(profiles).Vector()
	v = append(v, math.Log1p(float64(launches)))
	return append(v, DeviceVector(dev)...)
}

// CellFeatures assembles the feature vector of one measured cell.
func CellFeatures(m *harness.Measurement) []float64 {
	return Features(m.Profiles, m.KernelLaunches, m.Device)
}

// fromGrid flattens every measured cell into a training row over the given
// regression target (stored linearly in Row.MedianNs, logged in Row.LogNs).
// Rows come out in grid order, so the dataset — like the grid — is
// deterministic and independent of how many workers measured it.
func fromGrid(g *harness.Grid, what string, target func(*harness.Measurement) float64) (*Dataset, error) {
	ds := &Dataset{FeatureNames: FeatureNames(), Rows: make([]Row, 0, len(g.Measurements))}
	for _, m := range g.Measurements {
		v := target(m)
		if v <= 0 {
			return nil, fmt.Errorf("predict: cell %s/%s/%s has non-positive median %s",
				m.Benchmark, m.Size, m.Device.ID, what)
		}
		ds.Rows = append(ds.Rows, Row{
			Benchmark: m.Benchmark,
			Size:      m.Size,
			Device:    m.Device.ID,
			Class:     m.Device.Class.String(),
			Features:  CellFeatures(m),
			MedianNs:  v,
			LogNs:     math.Log(v),
		})
	}
	if len(ds.Rows) == 0 {
		return nil, fmt.Errorf("predict: empty grid")
	}
	return ds, nil
}

// FromGrid builds the runtime dataset: the target is ln(median kernel time).
func FromGrid(g *harness.Grid) (*Dataset, error) {
	return fromGrid(g, "kernel time", func(m *harness.Measurement) float64 { return m.Kernel.Median })
}

// EnergyFromGrid builds the dataset behind the scheduler's energy cost
// model: identical features, targeting ln(median energy) — Row.MedianNs
// holds Joules. The same Forest machinery (and its determinism guarantees)
// applies unchanged.
func EnergyFromGrid(g *harness.Grid) (*Dataset, error) {
	return fromGrid(g, "energy", func(m *harness.Measurement) float64 { return m.Energy.Median })
}

// Split partitions the dataset's rows by a key function into (held, rest) —
// the fold primitive behind both cross-validation schemes and the
// "predict a held-out device" mode.
func (ds *Dataset) Split(hold func(*Row) bool) (held, rest []Row) {
	for i := range ds.Rows {
		if hold(&ds.Rows[i]) {
			held = append(held, ds.Rows[i])
		} else {
			rest = append(rest, ds.Rows[i])
		}
	}
	return held, rest
}

// Devices returns the distinct device IDs of the dataset in first-seen
// (grid) order.
func (ds *Dataset) Devices() []string { return ds.distinct(func(r *Row) string { return r.Device }) }

// Benchmarks returns the distinct benchmark names in first-seen order.
func (ds *Dataset) Benchmarks() []string {
	return ds.distinct(func(r *Row) string { return r.Benchmark })
}

func (ds *Dataset) distinct(key func(*Row) string) []string {
	seen := map[string]bool{}
	var out []string
	for i := range ds.Rows {
		if k := key(&ds.Rows[i]); !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}
