package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/dwarfs/dwarfstest"
	"opendwarfs/internal/opencl"
)

func newEnv(t *testing.T) (*opencl.Context, *opencl.CommandQueue) {
	t.Helper()
	dev, err := opencl.LookupDevice("gtx1080")
	if err != nil {
		t.Fatal(err)
	}
	ctx, _ := opencl.NewContext(dev)
	q, _ := opencl.NewQueue(ctx, dev)
	return ctx, q
}

func TestMetadata(t *testing.T) {
	b := New()
	if b.Name() != "fft" || b.Dwarf() != "Spectral Methods" {
		t.Fatal("metadata")
	}
	if got := b.ArgString("large"); got != "2097152" {
		t.Fatalf("Table 3 args %q", got)
	}
	if _, err := b.New("odd", 1); err == nil {
		t.Fatal("bad size accepted")
	}
	if _, err := NewInstance(1000, 1); err == nil {
		t.Fatal("non-power-of-two accepted")
	}
	if _, err := NewInstance(1, 1); err == nil {
		t.Fatal("n=1 accepted")
	}
}

func runFFT(t *testing.T, n int, seed int64) *Instance {
	t.Helper()
	ctx, q := newEnv(t)
	inst, err := NewInstance(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Setup(ctx, q); err != nil {
		t.Fatal(err)
	}
	if err := inst.Iterate(q); err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestKernelMatchesSerialReference(t *testing.T) {
	for _, n := range []int{2, 4, 8, 64, 2048} {
		inst := runFFT(t, n, 5)
		if err := inst.Verify(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestAgainstDirectDFT(t *testing.T) {
	// Independent O(N²) check of the serial reference itself.
	const n = 32
	rng := rand.New(rand.NewSource(3))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
	}
	dft := make([]complex128, n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			angle := -2 * math.Pi * float64(k*j) / float64(n)
			dft[k] += x[j] * cmplx.Exp(complex(0, angle))
		}
	}
	fft := append([]complex128(nil), x...)
	SerialFFT(fft)
	for k := range dft {
		if cmplx.Abs(fft[k]-dft[k]) > 1e-9 {
			t.Fatalf("bin %d: FFT %v vs DFT %v", k, fft[k], dft[k])
		}
	}
}

func TestImpulseGivesFlatSpectrum(t *testing.T) {
	x := make([]complex128, 16)
	x[0] = 1
	SerialFFT(x)
	for k, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse bin %d = %v, want 1", k, v)
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := make([]complex128, 128)
	orig := make([]complex128, 128)
	for i := range x {
		x[i] = complex(rng.Float64(), rng.Float64())
		orig[i] = x[i]
	}
	SerialFFT(x)
	SerialIFFT(x)
	for i := range x {
		if cmplx.Abs(x[i]-orig[i]) > 1e-10 {
			t.Fatalf("sample %d: %v vs %v", i, x[i], orig[i])
		}
	}
}

// Property: Parseval — energy preserved up to 1/N scaling.
func TestParsevalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64
		x := make([]complex128, n)
		timeE := 0.0
		for i := range x {
			x[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
			timeE += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		}
		SerialFFT(x)
		freqE := 0.0
		for _, v := range x {
			freqE += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(freqE/float64(n)-timeE) < 1e-9*(1+timeE)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: linearity — FFT(a·x + y) = a·FFT(x) + FFT(y).
func TestLinearityProperty(t *testing.T) {
	f := func(seed int64, aRaw int8) bool {
		a := complex(float64(aRaw)/16, 0)
		rng := rand.New(rand.NewSource(seed))
		n := 32
		x := make([]complex128, n)
		y := make([]complex128, n)
		combo := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.Float64(), rng.Float64())
			y[i] = complex(rng.Float64(), rng.Float64())
			combo[i] = a*x[i] + y[i]
		}
		SerialFFT(x)
		SerialFFT(y)
		SerialFFT(combo)
		for i := range combo {
			if cmplx.Abs(combo[i]-(a*x[i]+y[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLaunchCountIsLogN(t *testing.T) {
	ctx, q := newEnv(t)
	inst, _ := NewInstance(2048, 1)
	if err := inst.Setup(ctx, q); err != nil {
		t.Fatal(err)
	}
	q.DrainEvents()
	if err := inst.Iterate(q); err != nil {
		t.Fatal(err)
	}
	kernels := 0
	for _, ev := range q.Events() {
		if ev.Kind == opencl.CommandKernel {
			kernels++
		}
	}
	if kernels != 11 { // log2(2048)
		t.Fatalf("%d kernel launches, want 11", kernels)
	}
	if inst.Passes() != 11 {
		t.Fatalf("Passes() = %d", inst.Passes())
	}
}

func TestRepeatedIterations(t *testing.T) {
	ctx, q := newEnv(t)
	inst, _ := NewInstance(256, 2)
	if err := inst.Setup(ctx, q); err != nil {
		t.Fatal(err)
	}
	var first []complex64
	for i := 0; i < 2; i++ {
		if err := inst.Iterate(q); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = append([]complex64(nil), inst.Output()...)
		}
	}
	for i := range first {
		if first[i] != inst.Output()[i] {
			t.Fatal("repeated transforms of the same input differ")
		}
	}
	if err := inst.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestFootprintMatchesPaperSizing(t *testing.T) {
	// tiny = 2048 points × 16 B = exactly the 32 KiB L1.
	inst, _ := NewInstance(2048, 1)
	if kib := inst.FootprintBytes() / 1024; kib != 32 {
		t.Fatalf("tiny fft footprint %d KiB, want 32", kib)
	}
}

func TestLifecycleErrors(t *testing.T) {
	inst, _ := NewInstance(64, 1)
	_, q := newEnv(t)
	if err := inst.Iterate(q); err == nil {
		t.Fatal("Iterate before Setup accepted")
	}
	if err := inst.Verify(); err == nil {
		t.Fatal("Verify before Iterate accepted")
	}
}

// Characterising a row leaves the signal undrawn at every size, and Verify
// refuses to run without an executing Iterate.
func TestSignalDeferredToExecutingIterate(t *testing.T) {
	for _, size := range New().Sizes() {
		inst, _ := dwarfstest.Characterise(t, New(), size, 1)
		in := inst.(*Instance)
		if in.input != nil {
			t.Errorf("%s: signal drawn before an executing Iterate", size)
		}
		if err := in.Verify(); err == nil {
			t.Errorf("%s: Verify accepted without an executing Iterate", size)
		}
	}
}

// The signal an executing Iterate draws at seed 1 is bitwise the one Setup
// generated when it drew eagerly; the digests were computed then.
func TestDrawnSignalGolden(t *testing.T) {
	want := map[string]string{
		dwarfs.SizeTiny:   "2f7cc5d4fa457764bca8061bf8226b8255b6b99250e37b34e53ee6eb7d9d95cd",
		dwarfs.SizeSmall:  "4d96fabe235be4d533470c2e8cefba50838ae07c27f22aa36d781252f6b058c6",
		dwarfs.SizeMedium: "bed41ae31debc70718364c1af68d57388d5685026733bfedf9e107678c96f21e",
	}
	for size, digest := range want {
		inst, q := dwarfstest.Characterise(t, New(), size, 1)
		q.SetSimulateOnly(false)
		if err := inst.Iterate(q); err != nil {
			t.Fatal(err)
		}
		if got := dwarfstest.Digest(inst.(*Instance).input); got != digest {
			t.Errorf("%s: signal digest %s, want %s", size, got, digest)
		}
	}
}

// TestSpectrumGolden pins the float32 bits of the spectrum one executing
// Iterate computes at seed 2, and the float64 bits of SerialFFT over a
// seeded signal, at the tiny, small and medium lengths. The grid digests
// see only fft's Verified flag; this test holds the butterflies and the
// serial reference themselves to the same bits.
func TestSpectrumGolden(t *testing.T) {
	want := map[int][2]string{
		2048: {
			"f368e453f4ccf8bb4b143ae5f6dfb9be80a2d635a93e09bb0bf1e384ff9f8513",
			"6a31abe61c41e25c618659c8f41866b136d526e3fda4783a3e3fb12c9b8faf63",
		},
		16384: {
			"d501f99f221e43024da51c8b5ef1b7b109c93a9b784d814ba393297f3c284314",
			"4ad36622c4b2888ce374cbcf62f9d5af611e9906450b1502e20fb0accfb874c6",
		},
		524288: {
			"5f792397726a7fcc83f9045926637ce79e1e3850c268b81a2e889622ffe847f3",
			"ad152f1b978919d0984f116c549e0093105f3c2ca8df28c0d4e7d3d0ccd85778",
		},
	}
	for n, digests := range want {
		inst := runFFT(t, n, 2)
		if got := dwarfstest.Digest(inst.Output()); got != digests[0] {
			t.Errorf("n=%d: spectrum digest %s, want %s", n, got, digests[0])
		}
		rng := rand.New(rand.NewSource(2))
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
		}
		SerialFFT(x)
		if got := dwarfstest.Digest(x); got != digests[1] {
			t.Errorf("n=%d: SerialFFT digest %s, want %s", n, got, digests[1])
		}
	}
}

// Verify rejects a spectrum with one bin pushed just past its tolerance,
// and names the bin.
func TestVerifyRejectsBinPastTolerance(t *testing.T) {
	const n, bin = 2048, 37
	inst := runFFT(t, n, 2)
	if err := inst.Verify(); err != nil {
		t.Fatal(err)
	}
	ref := make([]complex128, n)
	for i, v := range inst.input {
		ref[i] = complex128(v)
	}
	SerialFFT(ref)
	norm := 0.0
	for _, v := range ref {
		norm += cmplx.Abs(v) * cmplx.Abs(v)
	}
	tol := 1e-5 * math.Sqrt(norm/n) * float64(inst.Passes())
	inst.Output()[bin] += complex(float32(2*tol), 0)
	err := inst.Verify()
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("bin %d ", bin)) {
		t.Fatalf("Verify of a bin 2×tol off: %v", err)
	}
}

// The butterflies take their twiddles from the instance's table, so one
// wrong entry shows in the spectrum and Verify rejects it. A kernel that
// computed each twiddle itself would pass this unchanged.
func TestButterfliesReadTwiddleTable(t *testing.T) {
	inst := runFFT(t, 64, 2)
	_, q := newEnv(t)
	inst.tw[1] = 0 // k = 1 of the last pass
	if err := inst.Iterate(q); err != nil {
		t.Fatal(err)
	}
	if err := inst.Verify(); err == nil {
		t.Fatal("spectrum from a zeroed twiddle verified")
	}
}
