package stats

import (
	"math"
	"sync"
)

// This file implements the confidence-interval side of the rating
// machinery, following Touati's critique of mean-based speedup comparison
// ("Towards a Statistical Methodology to Evaluate Program Speedups"):
// two noisy sample sets should be compared with Welch's unequal-variance
// t-statistic and Student-t confidence intervals, not by raw means.

// WelchT returns Welch's t-statistic and the Welch–Satterthwaite degrees
// of freedom for the difference of means of two independent samples given
// their summary statistics (mean, unbiased variance, size). Either sample
// smaller than 2 yields t = 0, df = 1 (no evidence). Identical means with
// zero pooled standard error yield t = 0; distinct means with zero pooled
// standard error yield t = ±Inf.
func WelchT(m1, v1 float64, n1 int, m2, v2 float64, n2 int) (t, df float64) {
	if n1 < 2 || n2 < 2 {
		return 0, 1
	}
	a := v1 / float64(n1)
	b := v2 / float64(n2)
	se2 := a + b
	if se2 <= 0 {
		if m1 == m2 {
			return 0, 1
		}
		return math.Inf(1) * sign(m1-m2), 1
	}
	t = (m1 - m2) / math.Sqrt(se2)
	df = se2 * se2 / (a*a/float64(n1-1) + b*b/float64(n2-1))
	if df < 1 {
		df = 1
	}
	return t, df
}

// WelchSignificant reports whether the two summarized samples' means
// differ at two-sided confidence level conf (e.g. 0.95).
func WelchSignificant(m1, v1 float64, n1 int, m2, v2 float64, n2 int, conf float64) bool {
	if n1 < 2 || n2 < 2 {
		return false
	}
	t, df := WelchT(m1, v1, n1, m2, v2, n2)
	return math.Abs(t) >= TCritical(df, conf)
}

// MeanCIHalf returns the half-width of the two-sided Student-t confidence
// interval (level conf) for the mean of a sample with unbiased variance v
// and n points. Fewer than 2 points yield +Inf (no interval).
func MeanCIHalf(v float64, n int, conf float64) float64 {
	if n < 2 {
		return math.Inf(1)
	}
	return tCriticalN(n-1, conf) * math.Sqrt(v/float64(n))
}

// maxCachedDF bounds the degrees of freedom tCriticalN memoizes. The
// raters' sample windows are bounded by the engine's per-version
// invocation cap (1200 by default), so their intervals stay below it;
// larger windows are computed directly rather than growing the table.
const maxCachedDF = 4096

// tCritCache memoizes TCritical for MeanCIHalf's integer degrees of
// freedom: a convergence check asks for the same few values over and
// over, and each costs a bisection over the incomplete beta function.
// Entries are values of a pure function, so sharing the table across
// tunes and goroutines changes no result. Welch's fractional degrees of
// freedom (WelchSignificant) are not cached: a table keyed by them would
// grow without bound in a long-running server.
var tCritCache struct {
	sync.Mutex
	m map[tCritKey]float64
}

type tCritKey struct {
	df   int
	conf float64
}

// tCriticalN is TCritical for an integer df, memoized up to maxCachedDF
// for confidence levels strictly between 0 and 1 (a NaN level would never
// hit the table).
func tCriticalN(df int, conf float64) float64 {
	if df > maxCachedDF || !(conf > 0 && conf < 1) {
		return TCritical(float64(df), conf)
	}
	k := tCritKey{df, conf}
	tCritCache.Lock()
	t, ok := tCritCache.m[k]
	tCritCache.Unlock()
	if ok {
		return t
	}
	t = TCritical(float64(df), conf)
	tCritCache.Lock()
	if tCritCache.m == nil {
		tCritCache.m = make(map[tCritKey]float64)
	}
	tCritCache.m[k] = t
	tCritCache.Unlock()
	return t
}

// TCritical returns the two-sided Student-t critical value t* with
// P(|T_df| <= t*) = conf. df may be fractional (Welch–Satterthwaite).
// Computed by bisection on the exact t CDF (regularized incomplete beta),
// accurate to ~1e-10 across the df range the raters use.
func TCritical(df, conf float64) float64 {
	if df < 1 {
		df = 1
	}
	if conf <= 0 {
		return 0
	}
	if conf >= 1 {
		return math.Inf(1)
	}
	target := 0.5 + conf/2 // one-sided upper-tail CDF target
	lo, hi := 0.0, 2.0
	for tCDF(hi, df) < target {
		hi *= 2
		if hi > 1e9 {
			return hi
		}
	}
	for i := 0; i < 200 && hi-lo > 1e-12*(1+hi); i++ {
		mid := (lo + hi) / 2
		if tCDF(mid, df) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// tCDF returns P(T_df <= t) for Student's t-distribution.
func tCDF(t, df float64) float64 {
	if t == 0 {
		return 0.5
	}
	x := df / (df + t*t)
	p := regIncBeta(df/2, 0.5, x) / 2
	if t > 0 {
		return 1 - p
	}
	return p
}

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// evaluated with the continued-fraction expansion (Lentz's method).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lga, _ := math.Lgamma(a)
	lgb, _ := math.Lgamma(b)
	lgab, _ := math.Lgamma(a + b)
	front := math.Exp(lgab - lga - lgb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for the incomplete beta
// function by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-15
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

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}
