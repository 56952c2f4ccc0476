// Package srad implements the Structured Grid dwarf: Speckle Reducing
// Anisotropic Diffusion (Rodinia's srad), an iterative PDE solver used to
// despeckle ultrasound imagery. Each iteration computes a region-of-interest
// statistic on the host, then runs two grid kernels: srad1 derives the
// four-neighbour gradients and the diffusion coefficient per cell, srad2
// applies the divergence update.
//
// The Structured Grid dwarf is the paper's canonical memory-bandwidth-bound
// pattern (§5.1): GPUs widen their lead as the problem grows (Fig. 3a).
package srad

import (
	"fmt"
	"math"
	"math/rand"

	"opendwarfs/internal/cache"
	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/opencl"
	"opendwarfs/internal/sim"
)

// Lambda is the diffusion update weight (Table 3: 0.5).
const Lambda = 0.5

// geometry is one Table 2 grid: Φ1 rows × Φ2 cols.
type geometry struct{ Rows, Cols int }

// sizeGeom is the Table 2 workload scale parameter Φ.
var sizeGeom = map[string]geometry{
	dwarfs.SizeTiny:   {80, 16},
	dwarfs.SizeSmall:  {128, 80},
	dwarfs.SizeMedium: {1024, 336},
	dwarfs.SizeLarge:  {2048, 1024},
}

// Benchmark is the suite entry.
type Benchmark struct{}

// New returns the benchmark.
func New() *Benchmark { return &Benchmark{} }

// Name implements dwarfs.Benchmark.
func (*Benchmark) Name() string { return "srad" }

// Dwarf implements dwarfs.Benchmark.
func (*Benchmark) Dwarf() string { return "Structured Grid" }

// Sizes implements dwarfs.Benchmark.
func (*Benchmark) Sizes() []string { return dwarfs.Sizes() }

// ScaleParameter implements dwarfs.Benchmark.
func (*Benchmark) ScaleParameter(size string) string {
	g := sizeGeom[size]
	return fmt.Sprintf("%d,%d", g.Rows, g.Cols)
}

// ArgString implements dwarfs.Benchmark (Table 3: srad Φ1 Φ2 0 127 0 127 0.5 1).
func (*Benchmark) ArgString(size string) string {
	g := sizeGeom[size]
	return fmt.Sprintf("%d %d 0 127 0 127 %g 1", g.Rows, g.Cols, Lambda)
}

// New implements dwarfs.Benchmark.
func (*Benchmark) New(size string, seed int64) (dwarfs.Instance, error) {
	g, ok := sizeGeom[size]
	if !ok {
		return nil, fmt.Errorf("srad: unsupported size %q", size)
	}
	return NewInstance(g.Rows, g.Cols, seed)
}

// Instance is one configured diffusion run.
type Instance struct {
	rows, cols int
	seed       int64
	// ROI bounds, clamped to the grid (Table 3 requests rows/cols 0–127).
	r1, r2, c1, c2 int

	originalJ            []float32
	J, c, dN, dS, dW, dE []float32
	bufs                 []*opencl.Buffer
	q0sqr                float32 // host-computed ROI statistic, read by srad1
	kSrad1, kSrad2       *opencl.Kernel
	iterations           int // executed steps, replayed by Verify
}

// NewInstance builds an instance over a synthetic speckled image.
func NewInstance(rows, cols int, seed int64) (*Instance, error) {
	if rows < 2 || cols < 2 {
		return nil, fmt.Errorf("srad: grid %dx%d too small", rows, cols)
	}
	in := &Instance{rows: rows, cols: cols, seed: seed}
	in.r1, in.r2, in.c1, in.c2 = 0, min(127, rows-1), 0, min(127, cols-1)
	// J = exp(I/255) over a random speckled image, as the original
	// benchmark derives its working grid from the input image.
	rng := rand.New(rand.NewSource(seed))
	in.originalJ = make([]float32, rows*cols)
	for i := range in.originalJ {
		in.originalJ[i] = float32(math.Exp(rng.Float64()))
	}
	return in, nil
}

// FootprintBytes implements dwarfs.Instance: six grid planes (J, c and the
// four directional derivatives).
func (in *Instance) FootprintBytes() int64 {
	return 6 * int64(in.rows) * int64(in.cols) * 4
}

// Setup implements dwarfs.Instance.
func (in *Instance) Setup(ctx *opencl.Context, q *opencl.CommandQueue) error {
	alloc := func(name string) []float32 {
		b := opencl.NewBuffer[float32](ctx, name, in.rows*in.cols)
		in.bufs = append(in.bufs, b)
		return opencl.Data[float32](b)
	}
	in.J = alloc("J")
	in.c = alloc("c")
	in.dN = alloc("dN")
	in.dS = alloc("dS")
	in.dW = alloc("dW")
	in.dE = alloc("dE")
	copy(in.J, in.originalJ)

	rows, cols := in.rows, in.cols
	in.kSrad1 = &opencl.Kernel{
		Name: "srad1",
		Fn: func(wi *opencl.Item) {
			j := wi.GlobalID(0)
			i := wi.GlobalID(1)
			idx := i*cols + j
			in.dN[idx], in.dS[idx], in.dW[idx], in.dE[idx], in.c[idx] = srad1Cell(in.J, in.q0sqr, i, j, rows, cols)
		},
		Profile: func(ndr opencl.NDRange) *sim.KernelProfile { return in.profile("srad1", ndr, 5*4, 5*4) },
	}
	in.kSrad2 = &opencl.Kernel{
		Name: "srad2",
		Fn: func(wi *opencl.Item) {
			j := wi.GlobalID(0)
			i := wi.GlobalID(1)
			row, south := i*cols, min(i+1, rows-1)*cols
			srad2Cell(in.J[row:row+cols], in.c[row:row+cols], in.c[south:south+cols],
				in.dN[row:], in.dS[row:], in.dW[row:], in.dE[row:], j)
		},
		Profile: func(ndr opencl.NDRange) *sim.KernelProfile { return in.profile("srad2", ndr, 6*4, 4) },
	}
	for _, b := range in.bufs {
		if b.Name() == "J" {
			q.EnqueueWrite(b)
		}
	}
	return nil
}

// srad1Cell returns the Rodinia srad kernel 1 values for cell (i, j) of J:
// the four-neighbour gradients and the clamped diffusion coefficient
// derived from the instantaneous coefficient of variation.
func srad1Cell(J []float32, q0sqr float32, i, j, rows, cols int) (n, s, w, e, c float32) {
	jc := J[i*cols+j]
	n = J[max(i-1, 0)*cols+j] - jc
	s = J[min(i+1, rows-1)*cols+j] - jc
	w = J[i*cols+max(j-1, 0)] - jc
	e = J[i*cols+min(j+1, cols-1)] - jc

	g2 := (n*n + s*s + w*w + e*e) / (jc * jc)
	l := (n + s + w + e) / jc
	num := 0.5*g2 - (l*l)/16
	den := 1 + 0.25*l
	qsqr := num / (den * den)
	if q0sqr == 0 {
		// Perfectly homogeneous ROI: no speckle to diffuse. The original
		// code divides by zero here and NaN-poisons the grid — one of the
		// robustness failures the paper's curation targets (§2); clamp to
		// full conduction instead.
		return n, s, w, e, 1
	}
	d := (qsqr - q0sqr) / (q0sqr * (1 + q0sqr))
	c = 1 / (1 + d)
	if c < 0 {
		c = 0
	} else if c > 1 {
		c = 1
	}
	return n, s, w, e, c
}

// srad2Cell applies the divergence update to cell j of row J. c and the
// four derivatives are srad1's output on the same row, and south is c on
// the row below (the same row at the bottom edge).
func srad2Cell(J, c, south, dN, dS, dW, dE []float32, j int) {
	cN := c[j]
	cS := south[j]
	cW := c[j]
	cE := c[min(j+1, len(c)-1)]
	d := cN*dN[j] + cS*dS[j] + cW*dW[j] + cE*dE[j]
	J[j] += 0.25 * Lambda * d
}

// profile characterises a grid pass: a classic five-point stencil,
// bandwidth-bound with short-range reuse.
func (in *Instance) profile(name string, ndr opencl.NDRange, loadBytes, storeBytes float64) *sim.KernelProfile {
	return &sim.KernelProfile{
		Name:              name,
		WorkItems:         ndr.TotalItems(),
		FlopsPerItem:      28,
		IntOpsPerItem:     10,
		LoadBytesPerItem:  loadBytes,
		StoreBytesPerItem: storeBytes,
		WorkingSetBytes:   in.FootprintBytes(),
		Pattern:           cache.Stencil,
		TemporalReuse:     0.55, // neighbour rows revisited within the sweep
		BranchesPerItem:   4,
		Vectorizable:      true,
	}
}

// Iterate implements dwarfs.Instance: one diffusion step (host ROI
// statistics + two kernels), the iteration count Table 3 requests.
func (in *Instance) Iterate(q *opencl.CommandQueue) error {
	if in.kSrad1 == nil {
		return fmt.Errorf("srad: Iterate before Setup")
	}
	if !q.SimulateOnly() {
		in.q0sqr = roiStatistic(in.J, in.cols, in.r1, in.r2, in.c1, in.c2)
	}
	lx, ly := gridLocal(in.cols), gridLocal(in.rows)
	if _, err := q.EnqueueNDRange(in.kSrad1, opencl.NDR2(in.cols, in.rows, lx, ly)); err != nil {
		return err
	}
	if _, err := q.EnqueueNDRange(in.kSrad2, opencl.NDR2(in.cols, in.rows, lx, ly)); err != nil {
		return err
	}
	if !q.SimulateOnly() {
		// Only executed steps advance the PDE state the replay verifies.
		in.iterations++
	}
	return nil
}

// roiStatistic returns q0² = var/mean² of J over the region of interest —
// the speckle statistic that parameterises the diffusion coefficient.
func roiStatistic(J []float32, cols, r1, r2, c1, c2 int) float32 {
	sum, sum2 := 0.0, 0.0
	n := 0
	for i := r1; i <= r2; i++ {
		for j := c1; j <= c2; j++ {
			v := float64(J[i*cols+j])
			sum += v
			sum2 += v * v
			n++
		}
	}
	mean := sum / float64(n)
	variance := sum2/float64(n) - mean*mean
	return float32(variance / (mean * mean))
}

// gridLocal picks a power-of-two work-group edge ≤ 16 dividing n.
func gridLocal(n int) int {
	for _, l := range []int{16, 8, 4, 2} {
		if n%l == 0 {
			return l
		}
	}
	return 1
}

// Grid exposes the current diffusion state.
func (in *Instance) Grid() []float32 { return in.J }

// Verify implements dwarfs.Instance: replay the same number of iterations
// serially and require bitwise-identical grids (same per-cell arithmetic).
// The replay keeps srad1's output for two rows: srad2 on row i reads it on
// rows i and i+1, and srad1 on row i+1 is the last reader of row i's J
// before srad2 updates it.
func (in *Instance) Verify() error {
	if in.iterations == 0 {
		return fmt.Errorf("srad: Verify before an executing Iterate")
	}
	rows, cols := in.rows, in.cols
	J := append([]float32(nil), in.originalJ...)
	var c, dN, dS, dW, dE [2][]float32
	for _, p := range []*[2][]float32{&c, &dN, &dS, &dW, &dE} {
		p[0], p[1] = make([]float32, cols), make([]float32, cols)
	}
	srad1Row := func(i int, q0sqr float32) {
		r := i % 2
		for j := 0; j < cols; j++ {
			dN[r][j], dS[r][j], dW[r][j], dE[r][j], c[r][j] = srad1Cell(J, q0sqr, i, j, rows, cols)
		}
	}
	for it := 0; it < in.iterations; it++ {
		q0sqr := roiStatistic(J, cols, in.r1, in.r2, in.c1, in.c2)
		srad1Row(0, q0sqr)
		for i := 0; i < rows; i++ {
			if i+1 < rows {
				srad1Row(i+1, q0sqr)
			}
			r, south := i%2, min(i+1, rows-1)%2
			row := J[i*cols : (i+1)*cols]
			for j := 0; j < cols; j++ {
				srad2Cell(row, c[r], c[south], dN[r], dS[r], dW[r], dE[r], j)
			}
		}
	}
	for idx := range J {
		if J[idx] != in.J[idx] {
			return fmt.Errorf("srad: cell %d = %f, reference %f", idx, in.J[idx], J[idx])
		}
	}
	return nil
}
