// Package nw implements the Dynamic Programming dwarf: Needleman-Wunsch
// global sequence alignment (Rodinia's needle). The score matrix is filled
// block anti-diagonal by block anti-diagonal — one kernel launch per
// diagonal, ~2·(n/16) launches per alignment — which makes the benchmark a
// stress test of kernel-launch overhead. That is the mechanism behind
// Fig. 3b: AMD devices, with the highest per-enqueue cost, fall further
// behind as the problem (and launch count) grows, while Intel CPUs and
// Nvidia GPUs stay comparable.
package nw

import (
	"fmt"
	"math/rand"

	"opendwarfs/internal/cache"
	"opendwarfs/internal/data"
	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/opencl"
	"opendwarfs/internal/sim"
)

// BlockSize is the tile edge of the wavefront decomposition.
const BlockSize = 16

// Penalty is the gap penalty (Table 3: nw Φ 10).
const Penalty = 10

// Alphabet is the residue alphabet size (Rodinia uses amino-acid codes).
const Alphabet = 23

// nBySize is the Table 2 workload scale parameter Φ (sequence length).
var nBySize = map[string]int{
	dwarfs.SizeTiny:   48,
	dwarfs.SizeSmall:  176,
	dwarfs.SizeMedium: 1008,
	dwarfs.SizeLarge:  4096,
}

// Benchmark is the suite entry.
type Benchmark struct{}

// New returns the benchmark.
func New() *Benchmark { return &Benchmark{} }

// Name implements dwarfs.Benchmark.
func (*Benchmark) Name() string { return "nw" }

// Dwarf implements dwarfs.Benchmark.
func (*Benchmark) Dwarf() string { return "Dynamic Programming" }

// Sizes implements dwarfs.Benchmark.
func (*Benchmark) Sizes() []string { return dwarfs.Sizes() }

// ScaleParameter implements dwarfs.Benchmark.
func (*Benchmark) ScaleParameter(size string) string { return fmt.Sprintf("%d", nBySize[size]) }

// ArgString implements dwarfs.Benchmark (Table 3: nw Φ 10).
func (*Benchmark) ArgString(size string) string { return fmt.Sprintf("%d %d", nBySize[size], Penalty) }

// New implements dwarfs.Benchmark.
func (*Benchmark) New(size string, seed int64) (dwarfs.Instance, error) {
	n, ok := nBySize[size]
	if !ok {
		return nil, fmt.Errorf("nw: unsupported size %q", size)
	}
	return NewInstance(n, seed)
}

// Instance is one configured alignment.
type Instance struct {
	n, nb int
	seed  int64

	seq1, seq2 []int32 // column and row residues
	score      []int32 // Alphabet+1 square similarity table
	reference  []int32 // (n+1)² per-cell match scores
	m          []int32 // (n+1)² DP matrix (in place)

	refBuf, mBuf *opencl.Buffer
	diag         int // current anti-diagonal, read by the kernel closure
	kernel       *opencl.Kernel
	ran          bool
}

// NewInstance builds an instance; n must be a positive multiple of the
// block size, as in the original benchmark.
func NewInstance(n int, seed int64) (*Instance, error) {
	if n <= 0 || n%BlockSize != 0 {
		return nil, fmt.Errorf("nw: n=%d must be a positive multiple of %d", n, BlockSize)
	}
	in := &Instance{n: n, nb: n / BlockSize, seed: seed}
	in.seq1 = data.RandomSequence(n, Alphabet, seed)
	in.seq2 = data.RandomSequence(n, Alphabet, seed+1)
	// Deterministic symmetric substitution table in [-4, 11], standing in
	// for blosum62.
	rng := rand.New(rand.NewSource(seed + 2))
	k := Alphabet + 1
	in.score = make([]int32, k*k)
	for a := 0; a < k; a++ {
		for b := a; b < k; b++ {
			v := int32(rng.Intn(16) - 4)
			if a == b {
				v = int32(rng.Intn(6) + 4) // matches score high
			}
			in.score[a*k+b] = v
			in.score[b*k+a] = v
		}
	}
	return in, nil
}

// FootprintBytes implements dwarfs.Instance: the DP matrix and the
// per-cell reference scores, both (n+1)².
func (in *Instance) FootprintBytes() int64 {
	s := int64(in.n + 1)
	return 2 * s * s * 4
}

// Setup implements dwarfs.Instance.
func (in *Instance) Setup(ctx *opencl.Context, q *opencl.CommandQueue) error {
	dim := in.n + 1
	in.refBuf = opencl.NewBuffer[int32](ctx, "reference", dim*dim)
	in.mBuf = opencl.NewBuffer[int32](ctx, "itemsets", dim*dim)
	in.reference, in.m = opencl.Data[int32](in.refBuf), opencl.Data[int32](in.mBuf)
	k := Alphabet + 1
	for i := 1; i < dim; i++ {
		for j := 1; j < dim; j++ {
			in.reference[i*dim+j] = in.score[int(in.seq2[i-1])*k+int(in.seq1[j-1])]
		}
	}
	in.initMatrix()

	in.kernel = &opencl.Kernel{
		Name: "nw_block",
		Fn: func(wi *opencl.Item) {
			lo := max(0, in.diag-in.nb+1)
			bi := lo + wi.GlobalID(0)
			bj := in.diag - bi
			in.processBlock(bi, bj)
		},
		Profile: in.profile,
	}
	q.EnqueueWrite(in.refBuf)
	q.EnqueueWrite(in.mBuf)
	return nil
}

// initMatrix resets the DP matrix borders: row 0 and column 0 carry the
// accumulating gap penalties.
func (in *Instance) initMatrix() {
	dim := in.n + 1
	clear(in.m)
	for i := 1; i < dim; i++ {
		in.m[i*dim] = int32(-i * Penalty)
		in.m[i] = int32(-i * Penalty)
	}
}

// processBlock fills one 16×16 tile; its north and west neighbours are
// complete because they lie on earlier anti-diagonals.
func (in *Instance) processBlock(bi, bj int) {
	dim := in.n + 1
	r0 := bi*BlockSize + 1
	c0 := bj*BlockSize + 1
	for i := r0; i < r0+BlockSize; i++ {
		row := i * dim
		prow := row - dim
		for j := c0; j < c0+BlockSize; j++ {
			v := in.m[prow+j-1] + in.reference[row+j]
			if up := in.m[prow+j] - Penalty; up > v {
				v = up
			}
			if left := in.m[row+j-1] - Penalty; left > v {
				v = left
			}
			in.m[row+j] = v
		}
	}
}

// profile characterises one diagonal launch: Rodinia processes each tile
// with a 16-thread group working the internal wavefront, so the modelled
// item count is blocks × 16 with 16 cells each.
func (in *Instance) profile(ndr opencl.NDRange) *sim.KernelProfile {
	blocks := ndr.TotalItems()
	return &sim.KernelProfile{
		Name:      "nw_block",
		WorkItems: blocks * BlockSize,
		// 16 cells per modelled thread, ~6 integer ops per cell.
		IntOpsPerItem:     6 * BlockSize,
		LoadBytesPerItem:  BlockSize * 3 * 4 / 2, // north/west/reference, tile-cached
		StoreBytesPerItem: BlockSize * 4,
		WorkingSetBytes:   in.FootprintBytes(),
		Pattern:           cache.Strided,
		TemporalReuse:     0.7,
		BranchesPerItem:   2 * BlockSize,
		Divergence:        0.25, // internal wavefront leaves threads idle
		SerialFraction:    0.02,
		Vectorizable:      true,
	}
}

// Iterate implements dwarfs.Instance: reset the matrix (transfer region)
// and sweep all 2·nb−1 block anti-diagonals, one launch each.
func (in *Instance) Iterate(q *opencl.CommandQueue) error {
	if in.kernel == nil {
		return fmt.Errorf("nw: Iterate before Setup")
	}
	if !q.SimulateOnly() {
		in.initMatrix()
	}
	q.EnqueueWrite(in.mBuf)
	for d := 0; d <= 2*(in.nb-1); d++ {
		in.diag = d
		lo := max(0, d-in.nb+1)
		hi := min(d, in.nb-1)
		blocks := hi - lo + 1
		if _, err := q.EnqueueNDRange(in.kernel, opencl.NDR1(blocks, 1)); err != nil {
			return err
		}
	}
	in.ran = true
	return nil
}

// Launches returns the kernel launches per alignment — the quantity that
// drives the Fig. 3b AMD divergence.
func (in *Instance) Launches() int { return 2*in.nb - 1 }

// Score returns the optimal global alignment score of the last Iterate.
func (in *Instance) Score() int32 {
	dim := in.n + 1
	return in.m[dim*dim-1]
}

// Verify implements dwarfs.Instance: the full serial DP must match every
// cell exactly (integer arithmetic). The reference runs in two rolling
// rows, each compared with the kernel's as soon as it is complete, so the
// mismatch reported is the lowest-indexed one.
func (in *Instance) Verify() error {
	if !in.ran {
		return fmt.Errorf("nw: Verify before Iterate")
	}
	dim := in.n + 1
	prev, cur := make([]int32, dim), make([]int32, dim)
	for j := 1; j < dim; j++ {
		prev[j] = int32(-j * Penalty)
	}
	if err := in.checkRow(0, prev); err != nil {
		return err
	}
	for i := 1; i < dim; i++ {
		cur[0] = int32(-i * Penalty)
		for j := 1; j < dim; j++ {
			v := prev[j-1] + in.reference[i*dim+j]
			if up := prev[j] - Penalty; up > v {
				v = up
			}
			if left := cur[j-1] - Penalty; left > v {
				v = left
			}
			cur[j] = v
		}
		if err := in.checkRow(i, cur); err != nil {
			return err
		}
		prev, cur = cur, prev
	}
	return nil
}

// checkRow compares row i of the DP matrix with its reference row.
func (in *Instance) checkRow(i int, ref []int32) error {
	off := i * len(ref)
	for j, want := range ref {
		if got := in.m[off+j]; got != want {
			return fmt.Errorf("nw: cell %d = %d, reference %d", off+j, got, want)
		}
	}
	return nil
}
