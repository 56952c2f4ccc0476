package scibench

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Fatalf("N=%d", s.N)
	}
	if s.Mean != 5 {
		t.Fatalf("mean %f, want 5", s.Mean)
	}
	// Sample SD of this classic set is sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.SD-want) > 1e-12 {
		t.Fatalf("SD %f, want %f", s.SD, want)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max %f/%f", s.Min, s.Max)
	}
	if s.CV <= 0 {
		t.Fatal("CV should be positive")
	}
	if !(s.CI95Lo < s.Mean && s.Mean < s.CI95Hi) {
		t.Fatalf("CI [%f,%f] does not bracket mean", s.CI95Lo, s.CI95Hi)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{3.5})
	if s.SD != 0 || s.CI95Lo != 3.5 || s.CI95Hi != 3.5 {
		t.Fatalf("degenerate summary %+v", s)
	}
}

func TestSummarizeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty sample accepted")
		}
	}()
	Summarize(nil)
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := map[float64]float64{0: 1, 0.25: 2, 0.5: 3, 0.75: 4, 1: 5}
	for q, want := range cases {
		if got := Quantile(xs, q); got != want {
			t.Errorf("Q(%.2f)=%f, want %f", q, got, want)
		}
	}
	if got := Quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Errorf("interpolated median %f, want 1.5", got)
	}
}

func TestBoxStats(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 100} // 100 is an outlier
	f := BoxStats(xs)
	if f.Median != 5 {
		t.Fatalf("median %f", f.Median)
	}
	if len(f.Outliers) != 1 || f.Outliers[0] != 100 {
		t.Fatalf("outliers %v, want [100]", f.Outliers)
	}
	if f.WhiskerHi == 100 {
		t.Fatal("whisker must exclude the outlier")
	}
	if f.WhiskerLo > f.Q1 || f.WhiskerHi < f.Q3 {
		t.Fatalf("whiskers [%f,%f] inside the box [%f,%f]", f.WhiskerLo, f.WhiskerHi, f.Q1, f.Q3)
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{0.001, 0.025, 0.2, 0.5, 0.8, 0.975, 0.999} {
		x := NormalQuantile(p)
		if back := NormalCDF(x); math.Abs(back-p) > 1e-8 {
			t.Errorf("CDF(Quantile(%g)) = %g", p, back)
		}
	}
	if math.Abs(NormalQuantile(0.975)-1.959964) > 1e-5 {
		t.Errorf("z_0.975 = %f", NormalQuantile(0.975))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("p=0 accepted")
		}
	}()
	NormalQuantile(0)
}

func TestStudentCDFAgainstKnown(t *testing.T) {
	// t=2.009 with df=49 is the 0.975 quantile (tables).
	if got := StudentCDF(2.0096, 49); math.Abs(got-0.975) > 1e-3 {
		t.Errorf("StudentCDF(2.0096, 49) = %f, want ~0.975", got)
	}
	// Symmetry.
	if math.Abs(StudentCDF(-1.3, 10)+StudentCDF(1.3, 10)-1) > 1e-10 {
		t.Error("Student CDF not symmetric")
	}
	// Converges to normal for large df.
	if math.Abs(StudentCDF(1.96, 1e6)-NormalCDF(1.96)) > 1e-4 {
		t.Error("Student CDF does not converge to normal")
	}
}

func TestStudentQuantile(t *testing.T) {
	for _, df := range []float64{3, 10, 49, 200} {
		for _, p := range []float64{0.05, 0.5, 0.9, 0.975} {
			q := StudentQuantile(p, df)
			if back := StudentCDF(q, df); math.Abs(back-p) > 1e-6 {
				t.Errorf("df=%g p=%g: CDF(Q)=%g", df, p, back)
			}
		}
	}
}

// The memoised quantile behind Summarize's CI must be the bisection's
// result bit for bit, or cached and uncached runs would export different
// confidence intervals.
func TestStudentT975MatchesBisection(t *testing.T) {
	for df := 1; df <= 200; df++ {
		want := StudentQuantile(0.975, float64(df))
		for pass := 0; pass < 2; pass++ { // the first call fills the cache, the second reads it
			if got := studentT975(df); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("df=%d pass %d: cached %v, bisection %v", df, pass, got, want)
			}
		}
	}
}

// Concurrent Summarize calls fill and read the quantile cache together;
// run under -race. Sample sizes above 201 give degrees of freedom no other
// test caches, so the goroutines race on the first fill whatever the
// test order.
func TestSummarizeConcurrent(t *testing.T) {
	xs := make([]float64, 260)
	for i := range xs {
		xs[i] = float64(i * i % 17)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 202; n <= len(xs); n++ {
				Summarize(xs[:n])
			}
		}()
	}
	wg.Wait()
	for df := 201; df < len(xs); df++ {
		if got, want := studentT975(df), StudentQuantile(0.975, float64(df)); got != want {
			t.Fatalf("df=%d: cached %v, bisection %v", df, got, want)
		}
	}
}

func TestRegIncBeta(t *testing.T) {
	// I_x(1,1) = x.
	for _, x := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if got := RegIncBeta(1, 1, x); math.Abs(got-x) > 1e-12 {
			t.Errorf("I_%g(1,1) = %g", x, got)
		}
	}
	// I_x(2,2) = 3x^2 - 2x^3.
	x := 0.3
	want := 3*x*x - 2*x*x*x
	if got := RegIncBeta(2, 2, x); math.Abs(got-want) > 1e-10 {
		t.Errorf("I_0.3(2,2) = %g, want %g", got, want)
	}
}

// Property: summary statistics respect ordering invariants.
func TestSummaryInvariants(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, int(n)+1)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		s := Summarize(xs)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return s.Min <= s.Q1 && s.Q1 <= s.Median && s.Median <= s.Q3 && s.Q3 <= s.Max &&
			s.Min == sorted[0] && s.Max == sorted[len(sorted)-1] &&
			s.Mean >= s.Min && s.Mean <= s.Max &&
			s.SD >= 0 && s.CI95Lo <= s.Mean && s.Mean <= s.CI95Hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: shifting a sample shifts the mean and leaves the SD unchanged.
func TestSummaryShiftInvariance(t *testing.T) {
	f := func(seed int64, shift float64) bool {
		if math.IsNaN(shift) || math.IsInf(shift, 0) || math.Abs(shift) > 1e6 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 30)
		ys := make([]float64, 30)
		for i := range xs {
			xs[i] = rng.Float64() * 10
			ys[i] = xs[i] + shift
		}
		a, b := Summarize(xs), Summarize(ys)
		return math.Abs(b.Mean-a.Mean-shift) < 1e-9*(1+math.Abs(shift)) &&
			math.Abs(b.SD-a.SD) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
