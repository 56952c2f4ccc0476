// Package hmm implements the Graphical Models dwarf: one Baum-Welch
// re-estimation step of a hidden Markov model (the OpenDwarfs bwa_hmm
// benchmark). Table 2 parameterises it by state count Φ1 and symbol count
// Φ2 ((8,1), (900,1), (1012,1024), (2048,2048)); the observation-sequence
// length is fixed at T=16 here to keep functional execution tractable
// (documented in DESIGN.md — the paper itself validated correctness only at
// the tiny size, §4.4.4).
//
// One iteration runs: T forward-step kernels (with host rescaling), T
// backward-step kernels, a gamma kernel, a transition-update kernel over N²
// pairs, and an emission-update kernel over N×S — so launch overhead and
// dense N² traffic both appear, as on the real accelerators.
package hmm

import (
	"fmt"
	"math"
	"math/rand"

	"opendwarfs/internal/cache"
	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/opencl"
	"opendwarfs/internal/sim"
)

// T is the observation-sequence length.
const T = 16

// shape is one Table 2 configuration: N states, S symbols.
type shape struct{ N, S int }

// sizeShape is the Table 2 workload scale parameter Φ1, Φ2.
var sizeShape = map[string]shape{
	dwarfs.SizeTiny:   {8, 1},
	dwarfs.SizeSmall:  {900, 1},
	dwarfs.SizeMedium: {1012, 1024},
	dwarfs.SizeLarge:  {2048, 2048},
}

// Benchmark is the suite entry.
type Benchmark struct{}

// New returns the benchmark.
func New() *Benchmark { return &Benchmark{} }

// Name implements dwarfs.Benchmark.
func (*Benchmark) Name() string { return "hmm" }

// Dwarf implements dwarfs.Benchmark.
func (*Benchmark) Dwarf() string { return "Graphical Models" }

// Sizes implements dwarfs.Benchmark.
func (*Benchmark) Sizes() []string { return dwarfs.Sizes() }

// ScaleParameter implements dwarfs.Benchmark.
func (*Benchmark) ScaleParameter(size string) string {
	s := sizeShape[size]
	return fmt.Sprintf("%d,%d", s.N, s.S)
}

// ArgString implements dwarfs.Benchmark (Table 3: hmm -n Φ1 -s Φ2 -v s).
func (*Benchmark) ArgString(size string) string {
	s := sizeShape[size]
	return fmt.Sprintf("-n %d -s %d -v s", s.N, s.S)
}

// New implements dwarfs.Benchmark.
func (*Benchmark) New(size string, seed int64) (dwarfs.Instance, error) {
	s, ok := sizeShape[size]
	if !ok {
		return nil, fmt.Errorf("hmm: unsupported size %q", size)
	}
	return NewInstance(s.N, s.S, seed)
}

// Instance is one configured Baum-Welch step.
type Instance struct {
	n, s int
	seed int64

	// bufs holds A, B, π, obs, α, β, γ and the scales, in that order. The
	// slices below are their backings, fetched by the first executing
	// Iterate and nil until then.
	bufs []*opencl.Buffer

	// Model parameters (row-major, row-stochastic).
	a  []float32 // N×N transitions
	b  []float32 // N×S emissions
	pi []float32 // N initial distribution
	// Pristine copies restored each iteration; nil until drawn.
	a0, b0, pi0 []float32

	obs   []int32   // T observations (device buffer)
	alpha []float32 // T×N scaled forward variables
	beta  []float32 // T×N scaled backward variables
	gamma []float32 // T×N state posteriors
	scale []float32 // T rescaling factors (host-written)

	// Kernel state read by the closures.
	t int

	kFwdInit, kFwdStep, kBwdStep, kGamma, kUpdateA, kUpdateB *opencl.Kernel
}

// NewInstance builds an instance with random row-stochastic parameters,
// drawn from the seed by the first executing Iterate (see
// dwarfs.Instance).
func NewInstance(n, s int, seed int64) (*Instance, error) {
	if n < 1 || s < 1 {
		return nil, fmt.Errorf("hmm: need at least one state and symbol (got %d,%d)", n, s)
	}
	return &Instance{n: n, s: s, seed: seed}, nil
}

// draw fetches the buffers' backing slices and generates the model from
// the seed unless it is drawn already: A, B and π, then the observation
// sequence, written into the obs buffer.
func (in *Instance) draw() {
	if in.a0 != nil {
		return
	}
	f32 := func(i int) []float32 { return opencl.Data[float32](in.bufs[i]) }
	in.a, in.b, in.pi = f32(0), f32(1), f32(2)
	in.obs = opencl.Data[int32](in.bufs[3])
	in.alpha, in.beta, in.gamma, in.scale = f32(4), f32(5), f32(6), f32(7)
	rng := rand.New(rand.NewSource(in.seed))
	in.a0 = randStochastic(rng, in.n, in.n)
	in.b0 = randStochastic(rng, in.n, in.s)
	in.pi0 = randStochastic(rng, 1, in.n)
	for t := range in.obs {
		in.obs[t] = int32(rng.Intn(in.s))
	}
}

// randStochastic draws a rows×cols row-stochastic matrix.
func randStochastic(rng *rand.Rand, rows, cols int) []float32 {
	m := make([]float32, rows*cols)
	for r := 0; r < rows; r++ {
		sum := float32(0)
		for c := 0; c < cols; c++ {
			v := float32(rng.Float64() + 0.05)
			m[r*cols+c] = v
			sum += v
		}
		for c := 0; c < cols; c++ {
			m[r*cols+c] /= sum
		}
	}
	return m
}

// FootprintBytes implements dwarfs.Instance: A, B, π, observations and the
// forward/backward/posterior planes.
func (in *Instance) FootprintBytes() int64 {
	n, s := int64(in.n), int64(in.s)
	return n*n*4 + n*s*4 + n*4 + T*4 + 3*T*n*4 + T*4
}

// Setup implements dwarfs.Instance.
func (in *Instance) Setup(ctx *opencl.Context, q *opencl.CommandQueue) error {
	n := in.n
	f32 := func(name string, size int) *opencl.Buffer { return opencl.NewBuffer[float32](ctx, name, size) }
	in.bufs = []*opencl.Buffer{
		f32("A", n*n), f32("B", n*in.s), f32("pi", n), opencl.NewBuffer[int32](ctx, "obs", T),
		f32("alpha", T*n), f32("beta", T*n), f32("gamma", T*n), f32("scale", T),
	}

	// The kernels read the backings through locals: draw sets them after
	// Setup, so each work-item loads them from in once.
	in.kFwdInit = &opencl.Kernel{
		Name: "hmm_forward_init",
		Fn: func(wi *opencl.Item) {
			i := wi.GlobalID(0)
			in.alpha[i] = in.pi[i] * in.b[i*in.s+int(in.obs[0])]
		},
		Profile: func(ndr opencl.NDRange) *sim.KernelProfile { return in.profileVec("hmm_forward_init", ndr) },
	}
	in.kFwdStep = &opencl.Kernel{
		Name: "hmm_forward_step",
		Fn: func(wi *opencl.Item) {
			i := wi.GlobalID(0)
			t, a, alpha := in.t, in.a, in.alpha
			sum := float32(0)
			for j, p := range alpha[(t-1)*n : t*n] {
				sum += p * a[j*n+i]
			}
			alpha[t*n+i] = sum * in.b[i*in.s+int(in.obs[t])]
		},
		Profile: func(ndr opencl.NDRange) *sim.KernelProfile { return in.profileMat("hmm_forward_step", ndr) },
	}
	in.kBwdStep = &opencl.Kernel{
		Name: "hmm_backward_step",
		Fn: func(wi *opencl.Item) {
			i := wi.GlobalID(0)
			t, b, s, beta := in.t, in.b, in.s, in.beta
			o := int(in.obs[t+1])
			next := beta[(t+1)*n : (t+2)*n]
			sum := float32(0)
			for j, aij := range in.a[i*n : (i+1)*n] {
				sum += aij * b[j*s+o] * next[j]
			}
			beta[t*n+i] = sum / in.scale[t+1]
		},
		Profile: func(ndr opencl.NDRange) *sim.KernelProfile { return in.profileMat("hmm_backward_step", ndr) },
	}
	in.kGamma = &opencl.Kernel{
		Name: "hmm_gamma",
		Fn: func(wi *opencl.Item) {
			idx := wi.GlobalID(0) // t*n + i
			in.gamma[idx] = in.alpha[idx] * in.beta[idx]
		},
		Profile: func(ndr opencl.NDRange) *sim.KernelProfile { return in.profileVec("hmm_gamma", ndr) },
	}
	in.kUpdateA = &opencl.Kernel{
		Name: "hmm_update_a",
		Fn: func(wi *opencl.Item) {
			idx := wi.GlobalID(0)
			i, j := idx/n, idx%n
			alpha, beta, gamma, scale, obs := in.alpha, in.beta, in.gamma, in.scale, in.obs
			aij, bj := in.a[idx], in.b[j*in.s:]
			num, den := float32(0), float32(0)
			for t := 0; t < T-1; t++ {
				xi := alpha[t*n+i] * aij * bj[obs[t+1]] * beta[(t+1)*n+j] / scale[t+1]
				num += xi
				den += gamma[t*n+i]
			}
			if den > 0 {
				in.a[idx] = num / den
			}
		},
		Profile: func(ndr opencl.NDRange) *sim.KernelProfile { return in.profileUpdate("hmm_update_a", ndr) },
	}
	in.kUpdateB = &opencl.Kernel{
		Name: "hmm_update_b",
		Fn: func(wi *opencl.Item) {
			idx := wi.GlobalID(0)
			i, k := idx/in.s, idx%in.s
			num, den := float32(0), float32(0)
			for t := 0; t < T; t++ {
				g := in.gamma[t*n+i]
				if int(in.obs[t]) == k {
					num += g
				}
				den += g
			}
			if den > 0 {
				in.b[i*in.s+k] = num / den
			}
		},
		Profile: func(ndr opencl.NDRange) *sim.KernelProfile { return in.profileUpdate("hmm_update_b", ndr) },
	}
	for _, b := range in.bufs[:4] { // A, B, pi, obs
		q.EnqueueWrite(b)
	}
	return nil
}

func (in *Instance) profileVec(name string, ndr opencl.NDRange) *sim.KernelProfile {
	return &sim.KernelProfile{
		Name: name, WorkItems: ndr.TotalItems(),
		FlopsPerItem: 2, IntOpsPerItem: 4,
		LoadBytesPerItem: 12, StoreBytesPerItem: 4,
		WorkingSetBytes: in.FootprintBytes(), Pattern: cache.Streaming,
		TemporalReuse: 0.3, Vectorizable: true,
	}
}

func (in *Instance) profileMat(name string, ndr opencl.NDRange) *sim.KernelProfile {
	n := float64(in.n)
	return &sim.KernelProfile{
		Name: name, WorkItems: ndr.TotalItems(),
		FlopsPerItem: 3 * n, IntOpsPerItem: n,
		LoadBytesPerItem: 8 * n, StoreBytesPerItem: 4,
		WorkingSetBytes: in.FootprintBytes(), Pattern: cache.Strided,
		TemporalReuse: 0.5, Vectorizable: true,
	}
}

func (in *Instance) profileUpdate(name string, ndr opencl.NDRange) *sim.KernelProfile {
	return &sim.KernelProfile{
		Name: name, WorkItems: ndr.TotalItems(),
		FlopsPerItem: 6 * T, IntOpsPerItem: 2 * T,
		LoadBytesPerItem: 16 * T, StoreBytesPerItem: 4,
		WorkingSetBytes: in.FootprintBytes(), Pattern: cache.Strided,
		TemporalReuse: 0.6, Vectorizable: true,
	}
}

// launch enqueues a kernel over n items with a divisibility-safe local size.
func launch(q *opencl.CommandQueue, k *opencl.Kernel, n int) error {
	local := 64
	for n%local != 0 {
		local /= 2
	}
	_, err := q.EnqueueNDRange(k, opencl.NDR1(n, local))
	return err
}

// Iterate implements dwarfs.Instance: one full Baum-Welch re-estimation.
func (in *Instance) Iterate(q *opencl.CommandQueue) error {
	if in.kFwdInit == nil {
		return fmt.Errorf("hmm: Iterate before Setup")
	}
	simOnly := q.SimulateOnly()
	if !simOnly {
		in.draw()
		copy(in.a, in.a0)
		copy(in.b, in.b0)
		copy(in.pi, in.pi0)
	}
	n := in.n

	// Forward pass with per-step host rescaling.
	if err := launch(q, in.kFwdInit, n); err != nil {
		return err
	}
	if !simOnly {
		in.rescale(0)
	}
	for t := 1; t < T; t++ {
		in.t = t
		if err := launch(q, in.kFwdStep, n); err != nil {
			return err
		}
		if !simOnly {
			in.rescale(t)
		}
	}
	// Backward pass.
	if !simOnly {
		for i := 0; i < n; i++ {
			in.beta[(T-1)*n+i] = 1
		}
	}
	for t := T - 2; t >= 0; t-- {
		in.t = t
		if err := launch(q, in.kBwdStep, n); err != nil {
			return err
		}
	}
	// Posteriors and updates.
	if err := launch(q, in.kGamma, T*n); err != nil {
		return err
	}
	if err := launch(q, in.kUpdateA, n*n); err != nil {
		return err
	}
	if err := launch(q, in.kUpdateB, n*in.s); err != nil {
		return err
	}
	return nil
}

// rescale normalises alpha at step t and records the scaling factor.
func (in *Instance) rescale(t int) {
	n := in.n
	sum := float32(0)
	for i := 0; i < n; i++ {
		sum += in.alpha[t*n+i]
	}
	if sum == 0 {
		sum = 1
	}
	in.scale[t] = sum
	for i := 0; i < n; i++ {
		in.alpha[t*n+i] /= sum
	}
}

// LogLikelihood returns the scaled-forward log-likelihood of the
// observation sequence under the pre-update model.
func (in *Instance) LogLikelihood() float64 {
	ll := 0.0
	for t := 0; t < T; t++ {
		ll += math.Log(float64(in.scale[t]))
	}
	return ll
}

// Verify implements dwarfs.Instance: a serial replay of the same step must
// match A and B exactly, and both must remain row-stochastic.
func (in *Instance) Verify() error {
	if in.a0 == nil {
		return fmt.Errorf("hmm: Verify before an executing Iterate")
	}
	refA, refB := in.serialStep()
	for i := range refA {
		if d := math.Abs(float64(refA[i] - in.a[i])); d > 1e-5 {
			return fmt.Errorf("hmm: A[%d] = %g, reference %g", i, in.a[i], refA[i])
		}
	}
	for i := range refB {
		if d := math.Abs(float64(refB[i] - in.b[i])); d > 1e-5 {
			return fmt.Errorf("hmm: B[%d] = %g, reference %g", i, in.b[i], refB[i])
		}
	}
	// Row-stochastic invariant (within float accumulation error).
	for r := 0; r < in.n; r++ {
		sum := float32(0)
		for c := 0; c < in.n; c++ {
			sum += in.a[r*in.n+c]
		}
		if math.Abs(float64(sum-1)) > 1e-3 {
			return fmt.Errorf("hmm: A row %d sums to %f", r, sum)
		}
	}
	return nil
}

// serialStep replays one Baum-Welch step serially. Every sum runs over the
// same terms in the same order as the kernel's, so the replay matches the
// kernels bit for bit; the forward step and the A update accumulate a row
// of states at a time, so that they read A along its rows.
func (in *Instance) serialStep() (refA, refB []float32) {
	n, s := in.n, in.s
	a, b := in.a0, in.b0
	alpha := make([]float32, T*n)
	beta := make([]float32, T*n)
	gamma := make([]float32, T*n)
	scale := make([]float32, T)
	row := make([]float32, n) // one sum per state

	for i := 0; i < n; i++ {
		alpha[i] = in.pi0[i] * b[i*s+int(in.obs[0])]
	}
	resc := func(t int) {
		sum := float32(0)
		for i := 0; i < n; i++ {
			sum += alpha[t*n+i]
		}
		if sum == 0 {
			sum = 1
		}
		scale[t] = sum
		for i := 0; i < n; i++ {
			alpha[t*n+i] /= sum
		}
	}
	resc(0)
	for t := 1; t < T; t++ {
		clear(row)
		for j, p := range alpha[(t-1)*n : t*n] {
			for i, aji := range a[j*n : (j+1)*n] {
				row[i] += p * aji
			}
		}
		o := int(in.obs[t])
		for i, sum := range row {
			alpha[t*n+i] = sum * b[i*s+o]
		}
		resc(t)
	}
	for i := 0; i < n; i++ {
		beta[(T-1)*n+i] = 1
	}
	for t := T - 2; t >= 0; t-- {
		o := int(in.obs[t+1])
		next := beta[(t+1)*n : (t+2)*n]
		for i := 0; i < n; i++ {
			sum := float32(0)
			for j, aij := range a[i*n : (i+1)*n] {
				sum += aij * b[j*s+o] * next[j]
			}
			beta[t*n+i] = sum / scale[t+1]
		}
	}
	for idx := range gamma {
		gamma[idx] = alpha[idx] * beta[idx]
	}
	refA = make([]float32, n*n)
	copy(refA, a)
	for i := 0; i < n; i++ {
		clear(row)
		den := float32(0)
		ai := a[i*n : (i+1)*n]
		for t := 0; t < T-1; t++ {
			at, st, o := alpha[t*n+i], scale[t+1], int(in.obs[t+1])
			next := beta[(t+1)*n : (t+2)*n]
			for j, aij := range ai {
				xi := at * aij * b[j*s+o] * next[j] / st
				row[j] += xi
			}
			den += gamma[t*n+i]
		}
		if den > 0 {
			for j, num := range row {
				refA[i*n+j] = num / den
			}
		}
	}
	refB = make([]float32, n*s)
	copy(refB, b)
	for i := 0; i < n; i++ {
		for k := 0; k < s; k++ {
			num, den := float32(0), float32(0)
			for t := 0; t < T; t++ {
				g := gamma[t*n+i]
				if int(in.obs[t]) == k {
					num += g
				}
				den += g
			}
			if den > 0 {
				refB[i*s+k] = num / den
			}
		}
	}
	return refA, refB
}
