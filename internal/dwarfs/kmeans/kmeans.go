// Package kmeans implements the MapReduce dwarf of the Extended OpenDwarfs
// suite (§4.4.1): iterative k-means clustering of a randomly generated
// feature space. The paper extended the original benchmark to generate its
// points ("-g") rather than load them from file, to fairly exercise caches,
// and fixed the cluster count at 5.
package kmeans

import (
	"fmt"
	"math"

	"opendwarfs/internal/cache"
	"opendwarfs/internal/data"
	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/opencl"
	"opendwarfs/internal/sim"
)

const (
	// Clusters is fixed for all problem sizes (§4.4.1).
	Clusters = 5
	// Features per point (Table 3: -f 26).
	Features = 26
)

// pointsBySize is the Table 2 workload scale parameter Φ.
var pointsBySize = map[string]int{
	dwarfs.SizeTiny:   256,
	dwarfs.SizeSmall:  2048,
	dwarfs.SizeMedium: 65600,
	dwarfs.SizeLarge:  131072,
}

// Benchmark is the suite entry.
type Benchmark struct{}

// New returns the benchmark.
func New() *Benchmark { return &Benchmark{} }

// Name implements dwarfs.Benchmark.
func (*Benchmark) Name() string { return "kmeans" }

// Dwarf implements dwarfs.Benchmark.
func (*Benchmark) Dwarf() string { return "MapReduce" }

// Sizes implements dwarfs.Benchmark.
func (*Benchmark) Sizes() []string { return dwarfs.Sizes() }

// ScaleParameter implements dwarfs.Benchmark.
func (*Benchmark) ScaleParameter(size string) string {
	return fmt.Sprintf("%d", pointsBySize[size])
}

// ArgString implements dwarfs.Benchmark (Table 3).
func (*Benchmark) ArgString(size string) string {
	return fmt.Sprintf("-g -f %d -p %d", Features, pointsBySize[size])
}

// New implements dwarfs.Benchmark.
func (*Benchmark) New(size string, seed int64) (dwarfs.Instance, error) {
	n, ok := pointsBySize[size]
	if !ok {
		return nil, fmt.Errorf("kmeans: unsupported size %q", size)
	}
	return NewInstance(n, Features, Clusters, seed), nil
}

// Instance is one configured k-means run.
type Instance struct {
	points, features, clusters int
	seed                       int64

	feature    []float32 // points × features
	centroids  []float32 // clusters × features
	membership []int32   // per point

	featBuf, centBuf, membBuf *opencl.Buffer
	kernel                    *opencl.Kernel
	iterations                int
	converged                 bool
}

// NewInstance builds an instance with explicit parameters (exported so the
// sizing tool and tests can explore non-Table-2 configurations).
func NewInstance(points, features, clusters int, seed int64) *Instance {
	return &Instance{points: points, features: features, clusters: clusters, seed: seed}
}

// FootprintBytes implements Eq. (1) of the paper:
// size(feature) + size(membership) + size(cluster).
func (in *Instance) FootprintBytes() int64 {
	return int64(in.points)*int64(in.features)*4 +
		int64(in.points)*4 +
		int64(in.clusters)*int64(in.features)*4
}

// Setup implements dwarfs.Instance.
func (in *Instance) Setup(ctx *opencl.Context, q *opencl.CommandQueue) error {
	in.featBuf = opencl.NewBuffer[float32](ctx, "feature", in.points*in.features)
	in.centBuf = opencl.NewBuffer[float32](ctx, "cluster", in.clusters*in.features)
	in.membBuf = opencl.NewBuffer[int32](ctx, "membership", in.points)
	in.feature = opencl.Data[float32](in.featBuf)
	in.centroids = opencl.Data[float32](in.centBuf)
	in.membership = opencl.Data[int32](in.membBuf)

	copy(in.feature, data.RandomFeatures(in.points, in.features, in.seed))
	initCentroids(in.centroids, in.feature, in.clusters, in.features)
	for i := range in.membership {
		in.membership[i] = -1
	}

	feature, centroids, membership := in.feature, in.centroids, in.membership
	nf, nc := in.features, in.clusters
	in.kernel = &opencl.Kernel{
		Name: "kmeans_assign",
		Fn: func(wi *opencl.Item) {
			p := wi.GlobalID(0)
			membership[p] = assignPoint(feature[p*nf:(p+1)*nf], centroids, nc, nf)
		},
		Profile: in.profile,
	}

	q.EnqueueWrite(in.featBuf)
	q.EnqueueWrite(in.centBuf)
	q.EnqueueWrite(in.membBuf)
	return nil
}

// initCentroids seeds the centroids with the first C points, as the
// OpenDwarfs benchmark does with its random starting positions fixed by
// the data seed.
func initCentroids(centroids, feature []float32, clusters, features int) {
	copy(centroids, feature[:clusters*features])
}

// assignPoint returns the index of the closest centroid. Strict less-than
// keeps tie-breaking identical between kernel and serial reference.
func assignPoint(point, centroids []float32, clusters, features int) int32 {
	best := int32(0)
	bestDist := float32(math.Inf(1))
	for c := 0; c < clusters; c++ {
		d := float32(0)
		cent := centroids[c*features : (c+1)*features]
		for f := 0; f < features; f++ {
			diff := point[f] - cent[f]
			d += diff * diff
		}
		if d < bestDist {
			bestDist = d
			best = int32(c)
		}
	}
	return best
}

// profile characterises the assignment kernel: per point, C×F fused
// multiply-add distance work; the centroid table is tiny and stays resident
// (high temporal reuse) while the feature rows stream.
func (in *Instance) profile(ndr opencl.NDRange) *sim.KernelProfile {
	cf := float64(in.clusters * in.features)
	pointBytes := float64(in.features) * 4
	centBytes := cf * 4
	return &sim.KernelProfile{
		Name:              "kmeans_assign",
		WorkItems:         ndr.TotalItems(),
		FlopsPerItem:      3*cf + float64(in.clusters),
		IntOpsPerItem:     4,
		LoadBytesPerItem:  pointBytes + centBytes,
		StoreBytesPerItem: 4,
		WorkingSetBytes:   in.FootprintBytes(),
		Pattern:           cache.Streaming,
		TemporalReuse:     centBytes / (centBytes + pointBytes),
		// Each work-item reads its point's features contiguously — perfect
		// for CPU prefetch, hopeless for GPU coalescing. This is why the
		// paper finds kmeans the one vector benchmark where CPUs stay
		// comparable to GPUs (§5.1: "relatively low ratio of
		// floating-point to memory operations").
		Coalescing:      0.5,
		BranchesPerItem: float64(in.clusters),
		Divergence:      0.1,
		Vectorizable:    true,
	}
}

// localSize picks a launch configuration; points counts in Table 2 are all
// multiples of 64 except none (256, 2048, 65600=64×1025, 131072 — all
// divisible by 64... 65600/64=1025). Use 64.
func (in *Instance) localSize() int {
	for _, l := range []int{64, 32, 16, 8, 4, 2, 1} {
		if in.points%l == 0 {
			return l
		}
	}
	return 1
}

// Iterate implements dwarfs.Instance: one assignment kernel launch plus the
// host-side centroid relocation of the algorithm (§4.4.1).
func (in *Instance) Iterate(q *opencl.CommandQueue) error {
	if in.kernel == nil {
		return fmt.Errorf("kmeans: Iterate before Setup")
	}
	if _, err := q.EnqueueNDRange(in.kernel, opencl.NDR1(in.points, in.localSize())); err != nil {
		return err
	}
	if q.SimulateOnly() {
		// Simulate-only passes do not advance the algorithm, so they do
		// not count toward the iterations the serial replay verifies.
		return nil
	}
	in.iterations++
	changed := updateCentroids(in.feature, in.centroids, in.membership, in.clusters, in.features)
	in.converged = changed == 0
	return nil
}

// updateCentroids relocates each centroid to the mean of its members and
// returns how many points changed cluster since the previous pass.
// prev encoding: memberships are recomputed each pass, so change tracking
// compares against the stored assignment from the previous pass — callers
// pass the same slice the kernel wrote, so this function only relocates.
func updateCentroids(feature, centroids []float32, membership []int32, clusters, features int) int {
	counts := make([]int, clusters)
	sums := make([]float64, clusters*features)
	for p, m := range membership {
		counts[m]++
		row := feature[p*features : (p+1)*features]
		acc := sums[int(m)*features : (int(m)+1)*features]
		for f := 0; f < features; f++ {
			acc[f] += float64(row[f])
		}
	}
	changed := 0
	for c := 0; c < clusters; c++ {
		if counts[c] == 0 {
			continue // keep empty clusters in place, as OpenDwarfs does
		}
		for f := 0; f < features; f++ {
			nv := float32(sums[c*features+f] / float64(counts[c]))
			if centroids[c*features+f] != nv {
				changed++
			}
			centroids[c*features+f] = nv
		}
	}
	return changed
}

// Converged reports whether the last pass moved no centroid.
func (in *Instance) Converged() bool { return in.converged }

// Iterations returns the number of passes run so far.
func (in *Instance) Iterations() int { return in.iterations }

// Verify implements dwarfs.Instance: replays the same number of passes
// serially from the same initial state and demands identical memberships
// and centroids (the arithmetic order per point is identical, so results
// must match exactly).
func (in *Instance) Verify() error {
	if in.iterations == 0 {
		return fmt.Errorf("kmeans: Verify before Iterate")
	}
	feature := data.RandomFeatures(in.points, in.features, in.seed)
	centroids := make([]float32, in.clusters*in.features)
	initCentroids(centroids, feature, in.clusters, in.features)
	membership := make([]int32, in.points)
	for it := 0; it < in.iterations; it++ {
		for p := 0; p < in.points; p++ {
			membership[p] = assignPoint(feature[p*in.features:(p+1)*in.features], centroids, in.clusters, in.features)
		}
		updateCentroids(feature, centroids, membership, in.clusters, in.features)
	}
	for p := range membership {
		if membership[p] != in.membership[p] {
			return fmt.Errorf("kmeans: point %d assigned to %d, reference says %d", p, in.membership[p], membership[p])
		}
	}
	for i := range centroids {
		if centroids[i] != in.centroids[i] {
			return fmt.Errorf("kmeans: centroid value %d diverged: %f vs %f", i, in.centroids[i], centroids[i])
		}
	}
	return nil
}
