// Package dwarfs defines the common benchmark abstraction of the Extended
// OpenDwarfs suite: every benchmark implements one Berkeley dwarf (§2),
// supports the paper's four problem sizes where possible (§4.4), runs its
// kernels against the internal/opencl runtime, and verifies its output
// against a serial reference — the correctness emphasis the paper adds to
// the original suite.
package dwarfs

import (
	"fmt"
	"sort"

	"opendwarfs/internal/opencl"
)

// The canonical problem sizes of §4.4, chosen against the Skylake memory
// hierarchy: tiny ≤ L1 (32 KiB), small ≤ L2 (256 KiB), medium ≤ L3
// (8192 KiB), large ≥ 4×L3.
const (
	SizeTiny   = "tiny"
	SizeSmall  = "small"
	SizeMedium = "medium"
	SizeLarge  = "large"
)

// Sizes returns the four canonical sizes in ascending order.
func Sizes() []string { return []string{SizeTiny, SizeSmall, SizeMedium, SizeLarge} }

// ValidSize reports whether s is one of the canonical sizes.
func ValidSize(s string) bool {
	for _, v := range Sizes() {
		if v == s {
			return true
		}
	}
	return false
}

// SupportsSize reports whether a benchmark supports the named problem
// size. It is the single size-membership helper shared by the harness grid
// planner and the public facade.
func SupportsSize(b Benchmark, size string) bool {
	for _, s := range b.Sizes() {
		if s == size {
			return true
		}
	}
	return false
}

// Benchmark is one suite entry.
type Benchmark interface {
	// Name is the suite identifier (kmeans, lud, csr, fft, dwt, srad, crc,
	// nw, gem, nqueens, hmm).
	Name() string
	// Dwarf is the Berkeley dwarf the benchmark represents (§2).
	Dwarf() string
	// Sizes lists the supported problem sizes; nqueens supports only one
	// (§4.4.4).
	Sizes() []string
	// ScaleParameter renders the benchmark's Table 2 workload scale
	// parameter Φ for a size.
	ScaleParameter(size string) string
	// ArgString renders the Table 3 program arguments for a size.
	ArgString(size string) string
	// New instantiates the benchmark at a size with a deterministic seed.
	New(size string, seed int64) (Instance, error)
}

// Instance is one configured benchmark run.
//
// An instance may defer drawing its seeded dataset until the data is
// first read. New and Setup then build only the shape — buffers, kernels,
// transfer commands, FootprintBytes and kernel profiles — and the first
// Iterate on an executing queue draws the dataset from the same seed, in
// the same order, as drawing it at construction would. An oversized
// configuration that the harness keeps on the timing model (DESIGN.md §2)
// then never generates data that no kernel or verifier reads. Data a
// caller supplies is held from construction.
//
// Buffers allocate their host backing on first use (opencl.NewBuffer), so
// a buffer's backing may not exist until the first executing Iterate
// fetches it with opencl.Data. Kernels read the slices the instance holds
// at execution time, never slices captured at Setup.
type Instance interface {
	// Setup declares buffers in the context and enqueues the initial
	// host→device transfers on the queue. Footprint and transfer volumes
	// are final after Setup; buffer contents, and their backing, may not
	// exist until the first executing Iterate.
	Setup(ctx *opencl.Context, q *opencl.CommandQueue) error
	// Iterate performs one timed iteration of the benchmark: every kernel
	// enqueue the application issues per loop pass (§4.3's ≥2 s loop runs
	// Iterate repeatedly). An instance that defers its dataset draws it
	// on the first Iterate on an executing queue.
	Iterate(q *opencl.CommandQueue) error
	// Verify checks the device results against the serial reference. It
	// must be called after at least one Iterate on an executing (non
	// simulate-only) queue; an instance that defers its dataset returns
	// an error when no executing Iterate has drawn it.
	Verify() error
	// FootprintBytes is the expected device-side memory usage (the paper
	// verifies this against the context's allocation accounting).
	FootprintBytes() int64
}

// CheckFootprint compares an instance's declared footprint with the
// context's live allocation accounting — the §4.4 verification step.
func CheckFootprint(inst Instance, ctx *opencl.Context) error {
	want := inst.FootprintBytes()
	got := ctx.DeviceFootprintBytes()
	if got != want {
		return fmt.Errorf("dwarfs: device footprint %d B does not match declared %d B", got, want)
	}
	return nil
}

// Registry is an ordered benchmark collection.
type Registry struct {
	order []Benchmark
	byKey map[string]Benchmark
}

// NewRegistry builds a registry from benchmarks, rejecting duplicates.
func NewRegistry(bs ...Benchmark) (*Registry, error) {
	r := &Registry{byKey: make(map[string]Benchmark, len(bs))}
	for _, b := range bs {
		if _, dup := r.byKey[b.Name()]; dup {
			return nil, fmt.Errorf("dwarfs: duplicate benchmark %q", b.Name())
		}
		r.byKey[b.Name()] = b
		r.order = append(r.order, b)
	}
	return r, nil
}

// All returns the benchmarks in registration order.
func (r *Registry) All() []Benchmark { return r.order }

// Get finds a benchmark by name. Unknown names fail with the sorted list
// of valid ones, mirroring sim.Lookup's device error.
func (r *Registry) Get(name string) (Benchmark, error) {
	b, ok := r.byKey[name]
	if !ok {
		names := make([]string, 0, len(r.order))
		for _, x := range r.order {
			names = append(names, x.Name())
		}
		sort.Strings(names)
		return nil, fmt.Errorf("dwarfs: unknown benchmark %q (have %v)", name, names)
	}
	return b, nil
}
