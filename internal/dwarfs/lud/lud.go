// Package lud implements the Dense Linear Algebra dwarf: blocked LU
// decomposition without pivoting of a diagonally dominant matrix, following
// the Rodinia-derived OpenDwarfs structure of three kernels per block step —
// diagonal factorisation, perimeter triangular solves, and the trailing
// submatrix update.
package lud

import (
	"fmt"
	"math"

	"opendwarfs/internal/cache"
	"opendwarfs/internal/data"
	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/opencl"
	"opendwarfs/internal/sim"
)

// B is the block size of the decomposition (Rodinia's BLOCK_SIZE).
const B = 16

// nBySize is the Table 2 workload scale parameter Φ (matrix dimension).
var nBySize = map[string]int{
	dwarfs.SizeTiny:   80,
	dwarfs.SizeSmall:  240,
	dwarfs.SizeMedium: 1440,
	dwarfs.SizeLarge:  4096,
}

// Benchmark is the suite entry.
type Benchmark struct{}

// New returns the benchmark.
func New() *Benchmark { return &Benchmark{} }

// Name implements dwarfs.Benchmark.
func (*Benchmark) Name() string { return "lud" }

// Dwarf implements dwarfs.Benchmark.
func (*Benchmark) Dwarf() string { return "Dense Linear Algebra" }

// Sizes implements dwarfs.Benchmark.
func (*Benchmark) Sizes() []string { return dwarfs.Sizes() }

// ScaleParameter implements dwarfs.Benchmark.
func (*Benchmark) ScaleParameter(size string) string { return fmt.Sprintf("%d", nBySize[size]) }

// ArgString implements dwarfs.Benchmark (Table 3: lud -s Φ).
func (*Benchmark) ArgString(size string) string { return fmt.Sprintf("-s %d", nBySize[size]) }

// New implements dwarfs.Benchmark.
func (*Benchmark) New(size string, seed int64) (dwarfs.Instance, error) {
	n, ok := nBySize[size]
	if !ok {
		return nil, fmt.Errorf("lud: unsupported size %q", size)
	}
	return NewInstance(n, seed)
}

// Instance is one configured decomposition.
type Instance struct {
	n, nb int
	seed  int64

	original []float32 // pristine input, restored before each iteration; nil until drawn
	matBuf   *opencl.Buffer
	m        []float32 // matBuf's backing, the in-place working matrix; nil until drawn

	step                     int // current block step, read by kernel closures
	kDiag, kPerim, kInternal *opencl.Kernel
}

// NewInstance builds an instance for an n×n matrix; n must be a positive
// multiple of the block size, as the original benchmark requires.
func NewInstance(n int, seed int64) (*Instance, error) {
	if n <= 0 || n%B != 0 {
		return nil, fmt.Errorf("lud: n=%d must be a positive multiple of %d", n, B)
	}
	return &Instance{n: n, nb: n / B, seed: seed}, nil
}

// FootprintBytes implements dwarfs.Instance: the in-place matrix.
func (in *Instance) FootprintBytes() int64 { return int64(in.n) * int64(in.n) * 4 }

// Setup implements dwarfs.Instance. The matrix is drawn from the seed by
// the first executing Iterate (see dwarfs.Instance).
func (in *Instance) Setup(ctx *opencl.Context, q *opencl.CommandQueue) error {
	in.matBuf = opencl.NewBuffer[float32](ctx, "matrix", in.n*in.n)

	n := in.n
	// Diagonal kernel: factorise block (s,s) in place (Doolittle, unit
	// lower). One work-group of B "threads" in the original; the block is
	// inherently sequential across its k steps, so a single item performs
	// it here and the profile carries the serial fraction.
	in.kDiag = &opencl.Kernel{
		Name: "lud_diagonal",
		Fn: func(wi *opencl.Item) {
			m, s := in.m, in.step
			off := s * B
			for k := 0; k < B; k++ {
				piv := m[(off+k)*n+off+k]
				for i := k + 1; i < B; i++ {
					m[(off+i)*n+off+k] /= piv
					lik := m[(off+i)*n+off+k]
					for j := k + 1; j < B; j++ {
						m[(off+i)*n+off+j] -= lik * m[(off+k)*n+off+j]
					}
				}
			}
		},
		Profile: in.profileDiag,
	}
	// Perimeter kernel: one item per off-diagonal block in the pivot row
	// and column; row blocks get L⁻¹·A, column blocks get A·U⁻¹.
	in.kPerim = &opencl.Kernel{
		Name: "lud_perimeter",
		Fn: func(wi *opencl.Item) {
			m, s := in.m, in.step
			rem := in.nb - s - 1
			id := wi.GlobalID(0)
			off := s * B
			if id < rem {
				// Row block (s, s+1+id): forward substitution with the
				// unit-lower factor of the diagonal block.
				c0 := (s + 1 + id) * B
				for k := 0; k < B; k++ {
					for i := k + 1; i < B; i++ {
						lik := m[(off+i)*n+off+k]
						for j := 0; j < B; j++ {
							m[(off+i)*n+c0+j] -= lik * m[(off+k)*n+c0+j]
						}
					}
				}
			} else {
				// Column block (s+1+id', s): right-solve with U.
				r0 := (s + 1 + id - rem) * B
				for k := 0; k < B; k++ {
					piv := m[(off+k)*n+off+k]
					for i := 0; i < B; i++ {
						m[(r0+i)*n+off+k] /= piv
						lik := m[(r0+i)*n+off+k]
						for j := k + 1; j < B; j++ {
							m[(r0+i)*n+off+j] -= lik * m[(off+k)*n+off+j]
						}
					}
				}
			}
		},
		Profile: in.profilePerim,
	}
	// Internal kernel: one item per trailing block (i,j), computing
	// A(i,j) -= A(i,s)·A(s,j).
	in.kInternal = &opencl.Kernel{
		Name: "lud_internal",
		Fn: func(wi *opencl.Item) {
			m, s := in.m, in.step
			rem := in.nb - s - 1
			id := wi.GlobalID(0)
			bi := s + 1 + id/rem
			bj := s + 1 + id%rem
			off := s * B
			r0, c0 := bi*B, bj*B
			for i := 0; i < B; i++ {
				for k := 0; k < B; k++ {
					aik := m[(r0+i)*n+off+k]
					for j := 0; j < B; j++ {
						m[(r0+i)*n+c0+j] -= aik * m[(off+k)*n+c0+j]
					}
				}
			}
		},
		Profile: in.profileInternal,
	}
	q.EnqueueWrite(in.matBuf)
	return nil
}

// activeWS returns the working-set bytes of the trailing submatrix at the
// current step.
func (in *Instance) activeWS() int64 {
	rem := int64(in.nb-in.step) * B
	return rem * rem * 4
}

func (in *Instance) profileDiag(ndr opencl.NDRange) *sim.KernelProfile {
	// Modelled as the B×B thread block of the original kernel.
	flops := float64(B*B*B) / 3 * 2
	return &sim.KernelProfile{
		Name: "lud_diagonal", WorkItems: B * B,
		FlopsPerItem:     flops / (B * B),
		LoadBytesPerItem: 8, StoreBytesPerItem: 4,
		WorkingSetBytes: B * B * 4, Pattern: cache.Strided,
		TemporalReuse: 0.9, SerialFraction: 0.5, Vectorizable: true,
	}
}

func (in *Instance) profilePerim(ndr opencl.NDRange) *sim.KernelProfile {
	blocks := ndr.TotalItems()
	flopsPerBlock := float64(B * B * B) // triangular solve ≈ B³ MACs
	return &sim.KernelProfile{
		Name: "lud_perimeter", WorkItems: blocks * B * B,
		FlopsPerItem:     2 * flopsPerBlock / (B * B),
		LoadBytesPerItem: 2 * B * 4 / 4, StoreBytesPerItem: 4,
		WorkingSetBytes: in.activeWS(), Pattern: cache.Strided,
		TemporalReuse: 0.85, SerialFraction: 0.05, Vectorizable: true,
	}
}

func (in *Instance) profileInternal(ndr opencl.NDRange) *sim.KernelProfile {
	blocks := ndr.TotalItems()
	return &sim.KernelProfile{
		Name: "lud_internal", WorkItems: blocks * B * B,
		// 2·B³ flops per block over B² threads = 2·B flops per thread.
		FlopsPerItem:      2 * B,
		IntOpsPerItem:     B,
		LoadBytesPerItem:  2 * B * 4 / 4, // row/col slices staged in local memory
		StoreBytesPerItem: 4,
		WorkingSetBytes:   in.activeWS(), Pattern: cache.Strided,
		TemporalReuse: 0.9, Vectorizable: true,
	}
}

// Iterate implements dwarfs.Instance: restore the input (the transfer
// region) and run the full decomposition (3·nb−2 kernel launches).
func (in *Instance) Iterate(q *opencl.CommandQueue) error {
	if in.kDiag == nil {
		return fmt.Errorf("lud: Iterate before Setup")
	}
	if !q.SimulateOnly() {
		in.draw()
		copy(in.m, in.original)
	}
	q.EnqueueWrite(in.matBuf)
	for s := 0; s < in.nb; s++ {
		in.step = s
		if _, err := q.EnqueueNDRange(in.kDiag, opencl.NDR1(1, 1)); err != nil {
			return err
		}
		rem := in.nb - s - 1
		if rem == 0 {
			continue
		}
		if _, err := q.EnqueueNDRange(in.kPerim, opencl.NDR1(2*rem, 1)); err != nil {
			return err
		}
		if _, err := q.EnqueueNDRange(in.kInternal, opencl.NDR1(rem*rem, 1)); err != nil {
			return err
		}
	}
	return nil
}

// draw generates the input matrix from the seed unless it is drawn
// already, and fetches the matrix buffer's backing slice.
func (in *Instance) draw() {
	if in.original == nil {
		in.original = data.DiagonallyDominantMatrix(in.n, in.seed)
		in.m = opencl.Data[float32](in.matBuf)
	}
}

// Verify implements dwarfs.Instance: reconstruct L·U and compare with the
// original matrix in the Frobenius norm — the "comparing norms between the
// experimental outputs" check the paper added (§4.4.2). Full reconstruction
// is O(n³); beyond n=512 a deterministic sample of rows is checked instead,
// which still catches any mis-factorised block.
func (in *Instance) Verify() error {
	if in.original == nil {
		return fmt.Errorf("lud: Verify before an executing Iterate")
	}
	n := in.n
	rowStep := 1
	if n > 512 {
		rowStep = n / 512
	}
	var num, den float64
	for i := 0; i < n; i += rowStep {
		for j := 0; j < n; j++ {
			// (L·U)[i][j] with unit-diagonal L stored below the diagonal.
			sum := 0.0
			kmax := i
			if j < i {
				kmax = j
			}
			for k := 0; k <= kmax; k++ {
				var l float64
				switch {
				case k < i:
					l = float64(in.m[i*n+k])
				default: // k == i
					l = 1
				}
				if k <= j {
					sum += l * float64(in.m[k*n+j])
				}
			}
			d := sum - float64(in.original[i*n+j])
			num += d * d
			den += float64(in.original[i*n+j]) * float64(in.original[i*n+j])
		}
	}
	if rel := math.Sqrt(num / den); rel > 1e-4 {
		return fmt.Errorf("lud: relative reconstruction error %g exceeds 1e-4", rel)
	}
	return nil
}
