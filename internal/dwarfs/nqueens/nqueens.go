// Package nqueens implements the Backtrack & Branch-and-Bound dwarf: count
// all placements of n non-attacking queens. As in the OpenCL original, the
// host enumerates every legal placement of the first PrefixRows rows; each
// work-item then exhausts its subtree with a bitmask depth-first search and
// writes its solution count, which the host reduces.
//
// The paper tests only n=18 (§4.4.4): "memory footprint scales very slowly
// ... relative to the computational cost. Thus it is significantly
// compute-bound and only one problem size is tested." Counting n=18
// functionally takes minutes of host CPU; the harness therefore verifies
// the solver at smaller n (known solution counts) and uses the calibrated
// node-count model in EstimatedNodes for device timing at 18.
package nqueens

import (
	"fmt"

	"opendwarfs/internal/cache"
	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/opencl"
	"opendwarfs/internal/sim"
)

// PaperN is the single board size of Table 2.
const PaperN = 18

// PrefixRows is the host-side enumeration depth that generates work-items.
const PrefixRows = 4

// KnownSolutions maps board size to the number of solutions (OEIS A000170),
// used for verification.
var KnownSolutions = map[int]uint64{
	1: 1, 2: 0, 3: 0, 4: 2, 5: 10, 6: 4, 7: 40, 8: 92,
	9: 352, 10: 724, 11: 2680, 12: 14200, 13: 73712, 14: 365596,
	15: 2279184, 16: 14772512, 17: 95815104, 18: 666090624,
}

// Benchmark is the suite entry.
type Benchmark struct{}

// New returns the benchmark.
func New() *Benchmark { return &Benchmark{} }

// Name implements dwarfs.Benchmark.
func (*Benchmark) Name() string { return "nqueens" }

// Dwarf implements dwarfs.Benchmark.
func (*Benchmark) Dwarf() string { return "Backtrack & Branch and Bound" }

// Sizes implements dwarfs.Benchmark: one size only (§4.4.4).
func (*Benchmark) Sizes() []string { return []string{dwarfs.SizeTiny} }

// ScaleParameter implements dwarfs.Benchmark.
func (*Benchmark) ScaleParameter(size string) string { return fmt.Sprintf("%d", PaperN) }

// ArgString implements dwarfs.Benchmark (Table 3: n-queens Φ).
func (*Benchmark) ArgString(size string) string { return fmt.Sprintf("%d", PaperN) }

// New implements dwarfs.Benchmark.
func (*Benchmark) New(size string, seed int64) (dwarfs.Instance, error) {
	if size != dwarfs.SizeTiny {
		return nil, fmt.Errorf("nqueens: only one problem size is tested (got %q)", size)
	}
	return NewInstance(PaperN)
}

// prefix is one legal placement of the first PrefixRows rows, encoded as the
// three attack masks of the bitmask solver.
type prefix struct {
	cols, diagL, diagR uint32
}

// Instance is one configured count.
type Instance struct {
	n        int
	prefixes []prefix
	counts   []uint64

	prefixBuf, countBuf *opencl.Buffer
	kernel              *opencl.Kernel
	total               uint64
	ran                 bool
}

// NewInstance builds an instance for an n×n board (n ≤ 31 by construction
// of the bitmask solver). The host-side prefix enumeration happens here so
// the device footprint is known before Setup.
func NewInstance(n int) (*Instance, error) {
	if n < 1 || n > 31 {
		return nil, fmt.Errorf("nqueens: n=%d out of [1,31]", n)
	}
	in := &Instance{n: n}
	depth := PrefixRows
	if depth >= n {
		depth = 0 // tiny boards: a single item solves the whole tree
	}
	in.prefixes = enumeratePrefixes(n, depth)
	return in, nil
}

// FootprintBytes implements dwarfs.Instance: prefix masks plus per-item
// counts — tiny by design, the paper's point about this dwarf.
func (in *Instance) FootprintBytes() int64 {
	return int64(len(in.prefixes))*12 + int64(len(in.prefixes))*8
}

// Setup implements dwarfs.Instance: allocate and fill the device buffers
// for the prefixes enumerated at construction.
func (in *Instance) Setup(ctx *opencl.Context, q *opencl.CommandQueue) error {
	np := len(in.prefixes)

	in.prefixBuf = opencl.NewBuffer[uint32](ctx, "prefixes", np*3)
	in.countBuf = opencl.NewBuffer[uint64](ctx, "counts", np)
	maskData := opencl.Data[uint32](in.prefixBuf)
	in.counts = opencl.Data[uint64](in.countBuf)
	for i, p := range in.prefixes {
		maskData[3*i], maskData[3*i+1], maskData[3*i+2] = p.cols, p.diagL, p.diagR
	}

	full := uint32(1)<<uint(in.n) - 1
	prefixes, counts := in.prefixes, in.counts
	in.kernel = &opencl.Kernel{
		Name: "nqueens_count",
		Fn: func(wi *opencl.Item) {
			i := wi.GlobalID(0)
			p := prefixes[i]
			counts[i] = solve(full, p.cols, p.diagL, p.diagR)
		},
		Profile: in.profile,
	}
	q.EnqueueWrite(in.prefixBuf)
	return nil
}

// enumeratePrefixes lists every legal placement of the first `depth` rows.
func enumeratePrefixes(n, depth int) []prefix {
	full := uint32(1)<<uint(n) - 1
	var out []prefix
	var rec func(row int, cols, dl, dr uint32)
	rec = func(row int, cols, dl, dr uint32) {
		if row == depth {
			out = append(out, prefix{cols, dl, dr})
			return
		}
		avail := full &^ (cols | dl | dr)
		for avail != 0 {
			bit := avail & (-avail)
			avail ^= bit
			rec(row+1, cols|bit, (dl|bit)<<1&full, (dr|bit)>>1)
		}
	}
	rec(0, 0, 0, 0)
	return out
}

// solve counts completions of a partial placement with the classic bitmask
// depth-first search.
func solve(full, cols, dl, dr uint32) uint64 {
	if cols == full {
		return 1
	}
	var count uint64
	avail := full &^ (cols | dl | dr)
	for avail != 0 {
		bit := avail & (-avail)
		avail ^= bit
		count += solve(full, cols|bit, (dl|bit)<<1&full, (dr|bit)>>1)
	}
	return count
}

// measuredNodes is the exact search-tree size of the bitmask solver,
// counted once per board size (reproduced by TestNodeModel).
var measuredNodes = map[int]float64{
	8: 2057, 9: 8394, 10: 35539, 11: 166926,
	12: 856189, 13: 4674890, 14: 27358553,
}

// EstimatedNodes approximates the search-tree size of the bitmask solver
// for an n×n board: exact measured counts up to n=14, and beyond that the
// known solution count times the node/solution ratio extrapolated from the
// measured trend (74.8 at n=14, growing ~9% per row). The device timing
// model uses this for n=18, which is too expensive to execute functionally.
func EstimatedNodes(n int) float64 {
	if nodes, ok := measuredNodes[n]; ok {
		return nodes
	}
	if n < 8 {
		// Small boards: count exactly; the whole tree is microscopic.
		full := uint32(1)<<uint(n) - 1
		var nodes float64
		var rec func(cols, dl, dr uint32)
		rec = func(cols, dl, dr uint32) {
			nodes++
			avail := full &^ (cols | dl | dr)
			for avail != 0 {
				bit := avail & (-avail)
				avail ^= bit
				rec(cols|bit, (dl|bit)<<1&full, (dr|bit)>>1)
			}
		}
		rec(0, 0, 0)
		return nodes
	}
	ratio := 74.8
	for i := 14; i < n; i++ {
		ratio *= 1.09
	}
	if s, ok := KnownSolutions[n]; ok {
		return ratio * float64(s)
	}
	return ratio * 1e9 // beyond the known table; order-of-magnitude only
}

// profile characterises the kernel: register-resident integer backtracking
// with heavy branch divergence (subtree sizes vary wildly across items). It
// is not vectorizable — the OpenCL compilers cannot SIMD-ify the recursion —
// but its high arithmetic intensity lets GPUs keep partial warps busy, which
// is why Fig. 4b still shows GPUs ahead of CPUs (unlike crc).
func (in *Instance) profile(ndr opencl.NDRange) *sim.KernelProfile {
	items := ndr.TotalItems()
	nodes := EstimatedNodes(in.n)
	opsPerNode := 12.0 // mask updates, low-bit extraction, recursion control
	return &sim.KernelProfile{
		Name:              "nqueens_count",
		WorkItems:         items,
		IntOpsPerItem:     nodes * opsPerNode / float64(items),
		LoadBytesPerItem:  12,
		StoreBytesPerItem: 8,
		WorkingSetBytes:   in.FootprintBytes(),
		Pattern:           cache.Streaming,
		TemporalReuse:     0.9,
		BranchesPerItem:   nodes * 2 / float64(items),
		Divergence:        0.5,
		Vectorizable:      false,
	}
}

// Iterate implements dwarfs.Instance: one full count.
func (in *Instance) Iterate(q *opencl.CommandQueue) error {
	if in.kernel == nil {
		return fmt.Errorf("nqueens: Iterate before Setup")
	}
	np := len(in.prefixes)
	local := 64
	for np%local != 0 {
		local /= 2
	}
	if _, err := q.EnqueueNDRange(in.kernel, opencl.NDR1(np, local)); err != nil {
		return err
	}
	in.ran = true
	if q.SimulateOnly() {
		return nil
	}
	in.total = 0
	for _, c := range in.counts {
		in.total += c
	}
	return nil
}

// Solutions returns the counted total.
func (in *Instance) Solutions() uint64 { return in.total }

// Verify implements dwarfs.Instance against the known solution counts.
func (in *Instance) Verify() error {
	if !in.ran {
		return fmt.Errorf("nqueens: Verify before Iterate")
	}
	want, ok := KnownSolutions[in.n]
	if !ok {
		return fmt.Errorf("nqueens: no reference count for n=%d", in.n)
	}
	if in.total != want {
		return fmt.Errorf("nqueens: counted %d solutions for n=%d, want %d", in.total, in.n, want)
	}
	return nil
}
