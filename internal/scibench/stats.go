// Package scibench is the measurement and statistics library standing in for
// LibSciBench (Hoefler & Belli, SC'15), which the paper integrates into
// OpenDwarfs for high-resolution timing, statistically sound sample counts
// and per-region measurement (§2, §4.3).
//
// It provides: a calibrated high-resolution timer; summary statistics with
// confidence intervals and box-plot five-number summaries; the t-test power
// calculation the paper uses to justify 50 samples per group; Welch's t-test
// for comparing devices; and CSV/JSONL sample logging.
package scibench

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Summary holds the descriptive statistics of one sample group — everything
// the paper's box-plot figures and CV observations need.
type Summary struct {
	N      int
	Mean   float64
	SD     float64 // sample standard deviation (n-1)
	CV     float64 // coefficient of variation SD/Mean
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
	// CI95Lo/Hi is the 95% confidence interval of the mean (Student t).
	CI95Lo, CI95Hi float64
}

// Summarize computes summary statistics. It panics on an empty sample, which
// always indicates a harness bug.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("scibench: empty sample")
	}
	s := Summary{N: len(xs)}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	s.Q1 = Quantile(sorted, 0.25)
	s.Median = Quantile(sorted, 0.5)
	s.Q3 = Quantile(sorted, 0.75)

	for _, x := range xs {
		s.Mean += x
	}
	s.Mean /= float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.SD = math.Sqrt(ss / float64(s.N-1))
	}
	if s.Mean != 0 {
		s.CV = s.SD / math.Abs(s.Mean)
	}
	if s.N > 1 {
		half := studentT975(s.N-1) * s.SD / math.Sqrt(float64(s.N))
		s.CI95Lo, s.CI95Hi = s.Mean-half, s.Mean+half
	} else {
		s.CI95Lo, s.CI95Hi = s.Mean, s.Mean
	}
	return s
}

// t975 memoises StudentQuantile(0.975, df) by integer df. Summarize needs
// it on every call, the bisection costs about 100 µs, and a run only ever
// sees a handful of sample counts.
var t975 sync.Map // int → float64

// studentT975 returns StudentQuantile(0.975, df), computing each df once.
func studentT975(df int) float64 {
	if v, ok := t975.Load(df); ok {
		return v.(float64)
	}
	v := StudentQuantile(0.975, float64(df))
	t975.Store(df, v)
	return v
}

// Quantile returns the q-th quantile of a sorted sample using linear
// interpolation between order statistics (type-7, the R default).
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("scibench: empty sample")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// FiveNum is the box-plot five-number summary (with Tukey whiskers and
// outliers), matching the presentation of Figures 1–5.
type FiveNum struct {
	Min, Q1, Median, Q3, Max float64
	// WhiskerLo/Hi are the Tukey 1.5×IQR whisker positions clamped to data.
	WhiskerLo, WhiskerHi float64
	Outliers             []float64
}

// BoxStats computes the five-number summary of a sample.
func BoxStats(xs []float64) FiveNum {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	f := FiveNum{
		Min:    sorted[0],
		Q1:     Quantile(sorted, 0.25),
		Median: Quantile(sorted, 0.5),
		Q3:     Quantile(sorted, 0.75),
		Max:    sorted[len(sorted)-1],
	}
	iqr := f.Q3 - f.Q1
	lo, hi := f.Q1-1.5*iqr, f.Q3+1.5*iqr
	f.WhiskerLo, f.WhiskerHi = f.Max, f.Min
	for _, x := range sorted {
		if x >= lo && x < f.WhiskerLo {
			f.WhiskerLo = x
		}
		if x <= hi && x > f.WhiskerHi {
			f.WhiskerHi = x
		}
		if x < lo || x > hi {
			f.Outliers = append(f.Outliers, x)
		}
	}
	return f
}

// NormalQuantile is the inverse standard normal CDF (Acklam's algorithm,
// relative error < 1.15e-9 over (0,1)).
func NormalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("scibench: NormalQuantile p=%g out of (0,1)", p))
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const pLow = 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > 1-pLow:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}

// NormalCDF is the standard normal distribution function.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// StudentCDF is the CDF of Student's t distribution with df degrees of
// freedom, computed through the regularised incomplete beta function.
func StudentCDF(t, df float64) float64 {
	if df <= 0 {
		panic("scibench: StudentCDF df must be positive")
	}
	x := df / (df + t*t)
	p := 0.5 * RegIncBeta(df/2, 0.5, x)
	if t > 0 {
		return 1 - p
	}
	return p
}

// StudentQuantile inverts StudentCDF by bisection (sufficient precision for
// confidence intervals; the CDF is smooth and monotone).
func StudentQuantile(p, df float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("scibench: StudentQuantile p=%g out of (0,1)", p))
	}
	lo, hi := -1e3, 1e3
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if StudentCDF(mid, df) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// RegIncBeta is the regularised incomplete beta function I_x(a, b),
// evaluated with the standard continued-fraction expansion (Numerical
// Recipes betacf).
func RegIncBeta(a, b, x float64) float64 {
	if x < 0 || x > 1 {
		panic("scibench: RegIncBeta x out of [0,1]")
	}
	if x == 0 {
		return 0
	}
	if x == 1 {
		return 1
	}
	ln := lgamma(a+b) - lgamma(a) - lgamma(b) + a*math.Log(x) + b*math.Log(1-x)
	front := math.Exp(ln)
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - front*betacf(b, a, 1-x)/b
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

func betacf(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}
