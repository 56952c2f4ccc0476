// Package fft implements half of the Spectral Methods dwarf: a 1-D complex
// single-precision FFT. The paper replaced the original OpenDwarfs FFT —
// which "returned incorrect results or failures on some combinations of
// platforms and problem sizes" — with Eric Bainville's simpler
// high-performance radix-2 Stockham kernel (§2), which this package follows:
// log₂(N) ping-pong passes, each launching N/2 work-items that perform one
// butterfly and write the pair to self-sorting positions.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"

	"opendwarfs/internal/cache"
	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/opencl"
	"opendwarfs/internal/sim"
)

// nBySize is the Table 2 workload scale parameter Φ (transform length).
var nBySize = map[string]int{
	dwarfs.SizeTiny:   2048,
	dwarfs.SizeSmall:  16384,
	dwarfs.SizeMedium: 524288,
	dwarfs.SizeLarge:  2097152,
}

// Benchmark is the suite entry.
type Benchmark struct{}

// New returns the benchmark.
func New() *Benchmark { return &Benchmark{} }

// Name implements dwarfs.Benchmark.
func (*Benchmark) Name() string { return "fft" }

// Dwarf implements dwarfs.Benchmark.
func (*Benchmark) Dwarf() string { return "Spectral Methods" }

// Sizes implements dwarfs.Benchmark.
func (*Benchmark) Sizes() []string { return dwarfs.Sizes() }

// ScaleParameter implements dwarfs.Benchmark.
func (*Benchmark) ScaleParameter(size string) string { return fmt.Sprintf("%d", nBySize[size]) }

// ArgString implements dwarfs.Benchmark (Table 3: fft Φ).
func (*Benchmark) ArgString(size string) string { return fmt.Sprintf("%d", nBySize[size]) }

// New implements dwarfs.Benchmark.
func (*Benchmark) New(size string, seed int64) (dwarfs.Instance, error) {
	n, ok := nBySize[size]
	if !ok {
		return nil, fmt.Errorf("fft: unsupported size %q", size)
	}
	return NewInstance(n, seed)
}

// Instance is one configured transform.
type Instance struct {
	n    int
	seed int64

	input   []complex64 // pristine input signal; nil until drawn
	pingBuf *opencl.Buffer
	pongBuf *opencl.Buffer
	// Set by the first executing Iterate: the buffers' backing slices and
	// the twiddle table.
	ping, pong []complex64
	tw         []complex128

	// Kernel state read by the closure at execution time.
	src, dst []complex64
	p        int

	kernel *opencl.Kernel
	// out aliases whichever buffer holds the final spectrum.
	out []complex64
}

// NewInstance builds an instance; n must be a power of two ≥ 2.
func NewInstance(n int, seed int64) (*Instance, error) {
	if n < 2 || bits.OnesCount(uint(n)) != 1 {
		return nil, fmt.Errorf("fft: n=%d must be a power of two ≥ 2", n)
	}
	return &Instance{n: n, seed: seed}, nil
}

// FootprintBytes implements dwarfs.Instance: the two ping-pong buffers.
func (in *Instance) FootprintBytes() int64 { return 2 * int64(in.n) * 8 }

// Setup implements dwarfs.Instance. The signal is drawn from the seed by
// the first executing Iterate (see dwarfs.Instance).
func (in *Instance) Setup(ctx *opencl.Context, q *opencl.CommandQueue) error {
	in.pingBuf = opencl.NewBuffer[complex64](ctx, "ping", in.n)
	in.pongBuf = opencl.NewBuffer[complex64](ctx, "pong", in.n)

	in.kernel = &opencl.Kernel{
		Name:    "fft_radix2",
		Fn:      in.butterfly,
		Profile: in.profile,
	}
	q.EnqueueWrite(in.pingBuf)
	return nil
}

// butterfly is Bainville's radix-2 Stockham kernel: work-item i combines
// src[i] and src[i+N/2] with twiddle e^{-iπk/p} and writes the self-sorted
// pair at ((i-k)<<1)+k and +p, where k = i mod p. The twiddle is entry
// k·(N/2)/p of the table (see twiddles).
func (in *Instance) butterfly(wi *opencl.Item) {
	i := wi.GlobalID(0)
	t := in.n / 2
	k := i & (in.p - 1)
	u0 := complex128(in.src[i])
	u1 := complex128(in.src[i+t])
	u1 *= in.tw[k*(t/in.p)]
	j := ((i - k) << 1) + k
	in.dst[j] = complex64(u0 + u1)
	in.dst[j+in.p] = complex64(u0 - u1)
}

// profile characterises one pass: strided ping-pong traffic over both
// buffers with trig-heavy butterflies. Spectral Methods are the paper's
// canonical memory-latency-limited dwarf (§5.1), which the strided pattern
// over a cache-spilling working set reproduces.
func (in *Instance) profile(ndr opencl.NDRange) *sim.KernelProfile {
	return &sim.KernelProfile{
		Name:              "fft_radix2",
		WorkItems:         ndr.TotalItems(),
		FlopsPerItem:      24, // complex mul + 2 complex adds + sincos
		IntOpsPerItem:     8,
		LoadBytesPerItem:  16,
		StoreBytesPerItem: 16,
		WorkingSetBytes:   in.FootprintBytes(),
		Pattern:           cache.Strided,
		Vectorizable:      true,
	}
}

// Passes returns log₂(n), the number of kernel launches per transform.
func (in *Instance) Passes() int { return bits.TrailingZeros(uint(in.n)) }

// Iterate implements dwarfs.Instance: restore the input and run all passes.
func (in *Instance) Iterate(q *opencl.CommandQueue) error {
	if in.kernel == nil {
		return fmt.Errorf("fft: Iterate before Setup")
	}
	if !q.SimulateOnly() {
		in.draw()
		copy(in.ping, in.input)
	}
	q.EnqueueWrite(in.pingBuf)
	src, dst := in.ping, in.pong
	in.p = 1
	local := 64
	if in.n/2 < local {
		local = in.n / 2
	}
	for pass := 0; pass < in.Passes(); pass++ {
		in.src, in.dst = src, dst
		if _, err := q.EnqueueNDRange(in.kernel, opencl.NDR1(in.n/2, local)); err != nil {
			return err
		}
		src, dst = dst, src
		in.p <<= 1
	}
	in.out = src // after the final swap, src aliases the last destination
	return nil
}

// draw generates the input signal from the seed unless it is drawn
// already, fetches the buffers' backing slices and builds the twiddle
// table.
func (in *Instance) draw() {
	if in.input != nil {
		return
	}
	rng := rand.New(rand.NewSource(in.seed))
	in.input = make([]complex64, in.n)
	for i := range in.input {
		in.input[i] = complex(float32(rng.Float64()*2-1), float32(rng.Float64()*2-1))
	}
	in.ping = opencl.Data[complex64](in.pingBuf)
	in.pong = opencl.Data[complex64](in.pongBuf)
	in.tw = twiddles(in.n)
}

// twiddles returns the n/2 twiddles e^{-iπj/(n/2)}, j < n/2. The pass with
// span p needs e^{-iπk/p} for k < p, which is entry k·(n/2)/p: p and n/2
// are powers of two, so -π·j/(n/2) rounds to the same float64 as -π·k/p
// and the table holds bitwise the twiddles each work-item would compute.
func twiddles(n int) []complex128 {
	h := n / 2
	tw := make([]complex128, h)
	for j := range tw {
		tw[j] = cmplx.Exp(complex(0, -math.Pi*float64(j)/float64(h)))
	}
	return tw
}

// Output returns the spectrum of the last Iterate.
func (in *Instance) Output() []complex64 { return in.out }

// Verify implements dwarfs.Instance against a serial double-precision FFT;
// the paper examined correctness "by directly comparing outputs against a
// serial implementation" (§4.4.2).
func (in *Instance) Verify() error {
	if in.input == nil {
		return fmt.Errorf("fft: Verify before an executing Iterate")
	}
	ref := make([]complex128, in.n)
	for i, v := range in.input {
		ref[i] = complex128(v)
	}
	SerialFFT(ref)
	// Tolerance: float32 butterflies accumulate ~log₂(N)·ε error against
	// the float64 reference, relative to the signal norm.
	norm := 0.0
	for _, v := range ref {
		norm += cmplx.Abs(v) * cmplx.Abs(v)
	}
	norm = math.Sqrt(norm / float64(in.n))
	tol := 1e-5 * norm * float64(in.Passes())
	for i := range ref {
		if d := cmplx.Abs(complex128(in.out[i]) - ref[i]); d > tol {
			return fmt.Errorf("fft: bin %d differs by %g (tol %g): %v vs %v", i, d, tol, in.out[i], ref[i])
		}
	}
	return nil
}

// SerialFFT is the in-place double-precision Cooley-Tukey reference
// (iterative, bit-reversal ordering). len(x) must be a power of two.
func SerialFFT(x []complex128) {
	n := len(x)
	if n < 2 {
		return
	}
	if bits.OnesCount(uint(n)) != 1 {
		panic("fft: SerialFFT length must be a power of two")
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	w := make([]complex128, n/2) // one stage's twiddles, shared by its blocks
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := -2 * math.Pi / float64(size)
		for k := 0; k < half; k++ {
			w[k] = cmplx.Exp(complex(0, step*float64(k)))
		}
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w[k]
				x[start+k] = a + b
				x[start+k+half] = a - b
			}
		}
	}
}

// SerialIFFT is the inverse of SerialFFT (unscaled forward conjugation
// method, normalised by 1/N).
func SerialIFFT(x []complex128) {
	n := len(x)
	for i := range x {
		x[i] = cmplx.Conj(x[i])
	}
	SerialFFT(x)
	for i := range x {
		x[i] = cmplx.Conj(x[i]) / complex(float64(n), 0)
	}
}
