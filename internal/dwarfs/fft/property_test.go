package fft

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"opendwarfs/internal/opencl"
)

func quickEnv() (*opencl.Context, *opencl.CommandQueue) {
	dev, err := opencl.LookupDevice("titanx")
	if err != nil {
		return nil, nil
	}
	ctx, _ := opencl.NewContext(dev)
	q, _ := opencl.NewQueue(ctx, dev)
	return ctx, q
}

// Property: the Stockham kernel matches the serial reference for arbitrary
// power-of-two lengths and seeds.
func TestKernelSerialAgreementProperty(t *testing.T) {
	f := func(seed int64, logRaw uint8) bool {
		n := 1 << (uint(logRaw)%9 + 1) // 2..512
		ctx, q := quickEnv()
		if ctx == nil {
			return false
		}
		inst, err := NewInstance(n, seed)
		if err != nil {
			return false
		}
		if err := inst.Setup(ctx, q); err != nil {
			return false
		}
		if err := inst.Iterate(q); err != nil {
			return false
		}
		return inst.Verify() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: DC bin equals the sum of the signal; Nyquist bin equals the
// alternating sum.
func TestDCAndNyquistBins(t *testing.T) {
	f := func(seed int64) bool {
		ctx, q := quickEnv()
		inst, err := NewInstance(64, seed)
		if err != nil || ctx == nil {
			return false
		}
		if err := inst.Setup(ctx, q); err != nil {
			return false
		}
		if err := inst.Iterate(q); err != nil {
			return false
		}
		var dc, nyq complex128
		for i, v := range inst.input {
			dc += complex128(v)
			if i%2 == 0 {
				nyq += complex128(v)
			} else {
				nyq -= complex128(v)
			}
		}
		out := inst.Output()
		return cmplx.Abs(complex128(out[0])-dc) < 1e-3 &&
			cmplx.Abs(complex128(out[32])-nyq) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: time-domain circular shift multiplies each bin by a unit-modulus
// twiddle — so bin magnitudes are shift-invariant.
func TestShiftInvarianceOfMagnitudes(t *testing.T) {
	f := func(seed int64, shiftRaw uint8) bool {
		const n = 128
		shift := int(shiftRaw) % n
		ctx, q := quickEnv()
		a, err := NewInstance(n, seed)
		if err != nil || ctx == nil {
			return false
		}
		if err := a.Setup(ctx, q); err != nil {
			return false
		}
		if err := a.Iterate(q); err != nil {
			return false
		}

		ctx2, q2 := quickEnv()
		b, _ := NewInstance(n, seed)
		if err := b.Setup(ctx2, q2); err != nil {
			return false
		}
		// The first executing Iterate draws b's input; rotate it by
		// `shift` and transform again.
		if err := b.Iterate(q2); err != nil {
			return false
		}
		rot := make([]complex64, n)
		for i := range rot {
			rot[i] = b.input[(i+shift)%n]
		}
		copy(b.input, rot)
		if err := b.Iterate(q2); err != nil {
			return false
		}
		for k := 0; k < n; k++ {
			ma := cmplx.Abs(complex128(a.Output()[k]))
			mb := cmplx.Abs(complex128(b.Output()[k]))
			if math.Abs(ma-mb) > 1e-2*(1+ma) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
