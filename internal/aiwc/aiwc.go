// Package aiwc implements Architecture-Independent Workload
// Characterisation, the analysis the paper's future work (§7) applies to
// every OpenCL kernel to explain why runtime characteristics vary between
// devices. Characterisation is static: it is derived from a kernel's
// workload profile (opcode mix, arithmetic intensity, parallelism).
package aiwc

import (
	"fmt"
	"math"
	"sort"

	"opendwarfs/internal/sim"
)

// Metrics is the AIWC feature vector of one kernel launch.
type Metrics struct {
	Kernel string

	// Opcode mix: fractions of total operations.
	FlopFraction   float64
	IntFraction    float64
	LoadFraction   float64
	StoreFraction  float64
	BranchFraction float64

	// TotalOps is the absolute operation count of the launch.
	TotalOps float64
	// ArithmeticIntensity is flops per byte of pre-cache traffic.
	ArithmeticIntensity float64
	// Parallelism is the available work-item count.
	Parallelism int64
	// GranularityOps is operations per work-item (work depth proxy).
	GranularityOps float64
	// BranchDivergence mirrors the profile's divergence estimate.
	BranchDivergence float64
	// FootprintBytes is the device-side working set.
	FootprintBytes int64

	// TemporalReuse is the fraction of accesses with immediate reuse.
	TemporalReuse float64
	// Coalescing is the profile's lane-layout efficiency (unset → 1).
	Coalescing float64
	// SerialFraction is the Amdahl serial share of the launch.
	SerialFraction float64
	// Vectorizable is 1 when the kernel maps onto SIMD lanes, else 0.
	Vectorizable float64
	// PatternCode is the dominant access pattern as a numeric code
	// (cache.Pattern ordinal) so the vector form can carry it.
	PatternCode float64
}

// Characterize derives the static AIWC metrics from a workload profile.
func Characterize(p *sim.KernelProfile) Metrics {
	items := float64(p.WorkItems)
	flops := items * p.FlopsPerItem
	ints := items * p.IntOpsPerItem
	loads := items * p.LoadBytesPerItem / 4
	stores := items * p.StoreBytesPerItem / 4
	branches := items * p.BranchesPerItem
	total := flops + ints + loads + stores + branches
	m := Metrics{
		Kernel:              p.Name,
		TotalOps:            total,
		ArithmeticIntensity: p.ArithmeticIntensity(),
		Parallelism:         p.WorkItems,
		BranchDivergence:    p.Divergence,
		FootprintBytes:      p.WorkingSetBytes,
		TemporalReuse:       p.TemporalReuse,
		Coalescing:          p.Coalescing,
		SerialFraction:      p.SerialFraction,
		PatternCode:         float64(p.Pattern),
	}
	if m.Coalescing == 0 {
		m.Coalescing = 1 // profile convention: zero means unset
	}
	if p.Vectorizable {
		m.Vectorizable = 1
	}
	if items > 0 {
		m.GranularityOps = total / items
	}
	if total > 0 {
		m.FlopFraction = flops / total
		m.IntFraction = ints / total
		m.LoadFraction = loads / total
		m.StoreFraction = stores / total
		m.BranchFraction = branches / total
	}
	return m
}

// String renders the feature vector compactly.
func (m Metrics) String() string {
	return fmt.Sprintf("%s: ops=%.3g ai=%.3f par=%d gran=%.1f mix[f=%.2f i=%.2f ld=%.2f st=%.2f br=%.2f] div=%.2f ws=%dB",
		m.Kernel, m.TotalOps, m.ArithmeticIntensity, m.Parallelism, m.GranularityOps,
		m.FlopFraction, m.IntFraction, m.LoadFraction, m.StoreFraction, m.BranchFraction,
		m.BranchDivergence, m.FootprintBytes)
}

// featureNames lists the dimensions of Vector, in order. The split into
// kernel metrics here and device metrics in internal/predict mirrors the
// paper's §7 proposal: characterisation is architecture-independent, so
// the same vector describes a kernel on every device.
var featureNames = []string{
	"flop_frac", "int_frac", "load_frac", "store_frac", "branch_frac",
	"log_total_ops", "arith_intensity", "log_parallelism", "log_granularity",
	"divergence", "log_footprint", "temporal_reuse", "coalescing",
	"serial_frac", "vectorizable", "pattern",
}

// FeatureNames returns the names of Vector's dimensions, in order.
func FeatureNames() []string {
	out := make([]string, len(featureNames))
	copy(out, featureNames)
	return out
}

// Vector flattens the metrics into the numeric feature vector consumed by
// the prediction subsystem (internal/predict). Count-like dimensions are
// log-compressed; fractions pass through. The order matches FeatureNames.
func (m Metrics) Vector() []float64 {
	return []float64{
		m.FlopFraction, m.IntFraction, m.LoadFraction, m.StoreFraction, m.BranchFraction,
		math.Log1p(m.TotalOps),
		m.ArithmeticIntensity,
		math.Log1p(float64(m.Parallelism)),
		math.Log1p(m.GranularityOps),
		m.BranchDivergence,
		math.Log1p(float64(m.FootprintBytes)),
		m.TemporalReuse,
		m.Coalescing,
		m.SerialFraction,
		m.Vectorizable,
		m.PatternCode,
	}
}

// Aggregate combines the characterisations of a benchmark's kernels into
// one launch-weighted feature vector: each kernel contributes in proportion
// to its share of total operations, so a benchmark dominated by one hot
// kernel characterises like that kernel. TotalOps sums; FootprintBytes
// takes the maximum (kernels share the device-side dataset); everything
// else is the ops-weighted mean. Aggregating the profiles of a Preparation
// is device-independent by construction.
func Aggregate(profiles []*sim.KernelProfile) Metrics {
	if len(profiles) == 0 {
		return Metrics{}
	}
	agg := Metrics{Kernel: "aggregate"}
	totalW, par := 0.0, 0.0
	for _, p := range profiles {
		m := Characterize(p)
		w := m.TotalOps
		if w <= 0 {
			w = 1 // weight degenerate kernels minimally but don't drop them
		}
		totalW += w
		agg.TotalOps += m.TotalOps
		agg.FlopFraction += w * m.FlopFraction
		agg.IntFraction += w * m.IntFraction
		agg.LoadFraction += w * m.LoadFraction
		agg.StoreFraction += w * m.StoreFraction
		agg.BranchFraction += w * m.BranchFraction
		agg.ArithmeticIntensity += w * m.ArithmeticIntensity
		agg.GranularityOps += w * m.GranularityOps
		agg.BranchDivergence += w * m.BranchDivergence
		agg.TemporalReuse += w * m.TemporalReuse
		agg.Coalescing += w * m.Coalescing
		agg.SerialFraction += w * m.SerialFraction
		agg.Vectorizable += w * m.Vectorizable
		agg.PatternCode += w * m.PatternCode
		par += w * float64(m.Parallelism)
		if m.FootprintBytes > agg.FootprintBytes {
			agg.FootprintBytes = m.FootprintBytes
		}
	}
	agg.FlopFraction /= totalW
	agg.IntFraction /= totalW
	agg.LoadFraction /= totalW
	agg.StoreFraction /= totalW
	agg.BranchFraction /= totalW
	agg.ArithmeticIntensity /= totalW
	agg.GranularityOps /= totalW
	agg.BranchDivergence /= totalW
	agg.TemporalReuse /= totalW
	agg.Coalescing /= totalW
	agg.SerialFraction /= totalW
	agg.Vectorizable /= totalW
	agg.PatternCode /= totalW
	agg.Parallelism = int64(par / totalW)
	return agg
}

// Distance computes the Euclidean distance between two feature vectors over
// the normalised mix + intensity dimensions — the similarity measure used
// to argue diversity of a benchmark suite (§2's coverage goal).
func Distance(a, b Metrics) float64 {
	ds := []float64{
		a.FlopFraction - b.FlopFraction,
		a.IntFraction - b.IntFraction,
		a.LoadFraction - b.LoadFraction,
		a.StoreFraction - b.StoreFraction,
		a.BranchFraction - b.BranchFraction,
		squash(a.ArithmeticIntensity) - squash(b.ArithmeticIntensity),
		a.BranchDivergence - b.BranchDivergence,
		squash(float64(a.GranularityOps)/1e3) - squash(float64(b.GranularityOps)/1e3),
	}
	s := 0.0
	for _, d := range ds {
		s += d * d
	}
	return math.Sqrt(s)
}

func squash(x float64) float64 { return x / (1 + math.Abs(x)) }

// MostSimilarPair returns the two most similar kernels in a set — the
// diversity-analysis primitive (a suite wants this distance to be large).
func MostSimilarPair(ms []Metrics) (a, b Metrics, d float64) {
	if len(ms) < 2 {
		return Metrics{}, Metrics{}, math.NaN()
	}
	d = math.Inf(1)
	for i := 0; i < len(ms); i++ {
		for j := i + 1; j < len(ms); j++ {
			if dd := Distance(ms[i], ms[j]); dd < d {
				a, b, d = ms[i], ms[j], dd
			}
		}
	}
	return a, b, d
}

// SortByName orders metrics for stable reports.
func SortByName(ms []Metrics) {
	sort.Slice(ms, func(i, j int) bool { return ms[i].Kernel < ms[j].Kernel })
}
