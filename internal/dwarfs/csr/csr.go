// Package csr implements the Sparse Linear Algebra dwarf: sparse
// matrix–vector multiplication y = A·x over a compressed-sparse-row matrix
// produced by the createcsr generator (Table 3: csr -i Ψ where
// Ψ = createcsr -n Φ -d 5000, i.e. 0.5% dense).
package csr

import (
	"fmt"
	"math"
	"math/rand"

	"opendwarfs/internal/cache"
	"opendwarfs/internal/data"
	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/opencl"
	"opendwarfs/internal/sim"
)

// Density is the paper's matrix density (Table 3 note: "-d 5000 indicates
// ... 0.5% dense (or 99.5% sparse)").
const Density = 0.005

// nBySize is the Table 2 workload scale parameter Φ.
var nBySize = map[string]int{
	dwarfs.SizeTiny:   736,
	dwarfs.SizeSmall:  2416,
	dwarfs.SizeMedium: 14336,
	dwarfs.SizeLarge:  16384,
}

// Benchmark is the suite entry.
type Benchmark struct{}

// New returns the benchmark.
func New() *Benchmark { return &Benchmark{} }

// Name implements dwarfs.Benchmark.
func (*Benchmark) Name() string { return "csr" }

// Dwarf implements dwarfs.Benchmark.
func (*Benchmark) Dwarf() string { return "Sparse Linear Algebra" }

// Sizes implements dwarfs.Benchmark.
func (*Benchmark) Sizes() []string { return dwarfs.Sizes() }

// ScaleParameter implements dwarfs.Benchmark.
func (*Benchmark) ScaleParameter(size string) string { return fmt.Sprintf("%d", nBySize[size]) }

// ArgString implements dwarfs.Benchmark (Table 3).
func (*Benchmark) ArgString(size string) string {
	return fmt.Sprintf("-i <createcsr -n %d -d 5000>", nBySize[size])
}

// New implements dwarfs.Benchmark.
func (*Benchmark) New(size string, seed int64) (dwarfs.Instance, error) {
	n, ok := nBySize[size]
	if !ok {
		return nil, fmt.Errorf("csr: unsupported size %q", size)
	}
	return NewInstance(n, Density, seed)
}

// Instance is one configured SpMV run.
type Instance struct {
	mat  *data.CSR
	x, y []float32

	rowBuf, colBuf, valBuf, xBuf, yBuf *opencl.Buffer
	kernel                             *opencl.Kernel
	ran                                bool
}

// NewInstance builds an instance over a freshly generated matrix.
func NewInstance(n int, density float64, seed int64) (*Instance, error) {
	mat, err := data.CreateCSR(n, density, seed)
	if err != nil {
		return nil, err
	}
	return &Instance{mat: mat}, nil
}

// FootprintBytes implements dwarfs.Instance: rowptr + cols + vals + x + y.
func (in *Instance) FootprintBytes() int64 { return in.mat.FootprintBytes() }

// Matrix exposes the generated matrix (for the sizing tool).
func (in *Instance) Matrix() *data.CSR { return in.mat }

// Setup implements dwarfs.Instance.
func (in *Instance) Setup(ctx *opencl.Context, q *opencl.CommandQueue) error {
	m := in.mat
	in.rowBuf = opencl.NewBuffer[int32](ctx, "rowptr", len(m.RowPtr))
	in.colBuf = opencl.NewBuffer[int32](ctx, "cols", len(m.Cols))
	in.valBuf = opencl.NewBuffer[float32](ctx, "vals", len(m.Vals))
	in.xBuf = opencl.NewBuffer[float32](ctx, "x", m.N)
	in.yBuf = opencl.NewBuffer[float32](ctx, "y", m.N)
	rowPtr, cols := opencl.Data[int32](in.rowBuf), opencl.Data[int32](in.colBuf)
	vals := opencl.Data[float32](in.valBuf)
	in.x, in.y = opencl.Data[float32](in.xBuf), opencl.Data[float32](in.yBuf)
	copy(rowPtr, m.RowPtr)
	copy(cols, m.Cols)
	copy(vals, m.Vals)
	rng := rand.New(rand.NewSource(7))
	for i := range in.x {
		in.x[i] = float32(rng.Float64()*2 - 1)
	}

	x, y := in.x, in.y
	in.kernel = &opencl.Kernel{
		Name: "csr_spmv",
		Fn: func(wi *opencl.Item) {
			row := wi.GlobalID(0)
			sum := float32(0)
			for k := rowPtr[row]; k < rowPtr[row+1]; k++ {
				sum += vals[k] * x[cols[k]]
			}
			y[row] = sum
		},
		Profile: in.profile,
	}

	q.EnqueueWrite(in.rowBuf)
	q.EnqueueWrite(in.colBuf)
	q.EnqueueWrite(in.valBuf)
	q.EnqueueWrite(in.xBuf)
	return nil
}

// profile characterises SpMV: two flops per non-zero. The dominant traffic
// (vals and cols) is a single streaming pass; the data-dependent gathers
// target only the x vector, which fits in cache at every Table 2 size
// (64 KiB at n=16384), so they resolve as temporal reuse rather than DRAM
// randomness. This is why GPUs win csr outright in Fig. 2c: the benchmark is
// bandwidth-bound on streamed matrix data.
func (in *Instance) profile(ndr opencl.NDRange) *sim.KernelProfile {
	nnzPerRow := float64(in.mat.NNZ()) / float64(in.mat.N)
	return &sim.KernelProfile{
		Name:              "csr_spmv",
		WorkItems:         ndr.TotalItems(),
		FlopsPerItem:      2 * nnzPerRow,
		IntOpsPerItem:     2*nnzPerRow + 4,
		LoadBytesPerItem:  nnzPerRow*(4+4+4) + 8, // vals, cols, x gather, rowptr pair
		StoreBytesPerItem: 4,
		WorkingSetBytes:   in.mat.FootprintBytes(),
		Pattern:           cache.Streaming,
		TemporalReuse:     0.35, // the x-gather third of the traffic stays cached
		BranchesPerItem:   nnzPerRow,
		Divergence:        0.15, // row-length imbalance across a SIMD group
		Vectorizable:      true,
	}
}

// Iterate implements dwarfs.Instance: one SpMV.
func (in *Instance) Iterate(q *opencl.CommandQueue) error {
	if in.kernel == nil {
		return fmt.Errorf("csr: Iterate before Setup")
	}
	local := 64
	for in.mat.N%local != 0 {
		local /= 2
	}
	if _, err := q.EnqueueNDRange(in.kernel, opencl.NDR1(in.mat.N, local)); err != nil {
		return err
	}
	in.ran = true
	return nil
}

// Verify implements dwarfs.Instance against the serial reference.
func (in *Instance) Verify() error {
	if !in.ran {
		return fmt.Errorf("csr: Verify before Iterate")
	}
	want := make([]float32, in.mat.N)
	in.mat.MulVec(in.x, want)
	for i := range want {
		if diff := math.Abs(float64(want[i] - in.y[i])); diff > 1e-5*(1+math.Abs(float64(want[i]))) {
			return fmt.Errorf("csr: y[%d] = %f, reference %f", i, in.y[i], want[i])
		}
	}
	return nil
}
