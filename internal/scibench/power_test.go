package scibench

import (
	"math/rand"
	"testing"
)

func TestSampleSizeReproducesPaperChoice(t *testing.T) {
	// §4.3: 50 samples per group for β=0.8 at d=0.5 separation. The
	// normal-approximation two-sample calculation gives 63 and the
	// one-sample gives 32; the paper's 50 sits between the two, and 50
	// samples deliver power ≥ 0.8 at the effect size the paper targets in
	// the one-sample sense, and ≥ 0.69 two-sample.
	two := SampleSizeTwoSample(0.5, 0.05, 0.8)
	one := SampleSizeOneSample(0.5, 0.05, 0.8)
	if !(one <= PaperSampleSize() && PaperSampleSize() <= two) {
		t.Fatalf("paper n=50 should lie between one-sample (%d) and two-sample (%d) requirements", one, two)
	}
	if two != 63 {
		t.Errorf("two-sample n = %d, textbook value 63", two)
	}
	if one != 32 {
		t.Errorf("one-sample n = %d, textbook value 32", one)
	}
}

func TestPowerTwoSample(t *testing.T) {
	// Power grows with n and with effect size.
	if PowerTwoSample(63, 0.5, 0.05) < 0.8 {
		t.Error("n=63 should reach 80% power at d=0.5")
	}
	if PowerTwoSample(10, 0.5, 0.05) >= PowerTwoSample(50, 0.5, 0.05) {
		t.Error("power must grow with n")
	}
	if PowerTwoSample(50, 0.2, 0.05) >= PowerTwoSample(50, 0.8, 0.05) {
		t.Error("power must grow with effect size")
	}
	if PowerTwoSample(1, 0.5, 0.05) != 0 {
		t.Error("n<2 has no power")
	}
}

func TestSampleSizeValidation(t *testing.T) {
	for _, f := range []func(){
		func() { SampleSizeTwoSample(0, 0.05, 0.8) },
		func() { SampleSizeTwoSample(0.5, 0, 0.8) },
		func() { SampleSizeOneSample(0.5, 0.05, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid power parameters accepted")
				}
			}()
			f()
		}()
	}
}

func TestWelchTTestDistinguishes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := make([]float64, 50)
	b := make([]float64, 50)
	for i := range a {
		a[i] = 10 + rng.NormFloat64()
		b[i] = 12 + rng.NormFloat64() // 2 SD apart: hugely significant
	}
	tt, df, p := WelchTTest(a, b)
	if p > 1e-6 {
		t.Fatalf("p=%g for a 2-sigma separation", p)
	}
	if tt >= 0 {
		t.Fatalf("t=%f should be negative (a < b)", tt)
	}
	if df < 40 || df > 100 {
		t.Fatalf("df=%f implausible for n=50,50", df)
	}
}

func TestWelchTTestNullCase(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := make([]float64, 50)
	b := make([]float64, 50)
	for i := range a {
		a[i] = 5 + rng.NormFloat64()
		b[i] = 5 + rng.NormFloat64()
	}
	_, _, p := WelchTTest(a, b)
	if p < 0.01 {
		t.Fatalf("p=%g: same-distribution groups flagged as different", p)
	}
}

func TestWelchTTestDegenerate(t *testing.T) {
	// Zero variance, equal means.
	_, _, p := WelchTTest([]float64{3, 3, 3}, []float64{3, 3, 3})
	if p != 1 {
		t.Fatalf("identical constant groups p=%f, want 1", p)
	}
	// Zero variance, different means.
	_, _, p = WelchTTest([]float64{3, 3, 3}, []float64{4, 4, 4})
	if p != 0 {
		t.Fatalf("distinct constant groups p=%f, want 0", p)
	}
}
