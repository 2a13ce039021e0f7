// Package stats provides the statistics machinery of the paper's rating
// process (§3): windowed mean/variance accumulation, outlier elimination,
// and the rating-error metrics of Table 1 (Eqs. 7–10).
package stats

import (
	"math"
	"sort"
)

// Welford accumulates mean and variance incrementally.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one sample.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of samples.
func (w *Welford) N() int { return w.n }

// Mean returns the sample mean (0 for no samples).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 for fewer than 2 samples).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Reset clears the accumulator.
func (w *Welford) Reset() { *w = Welford{} }

// Mean returns the mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Median returns the median of xs (0 for empty input). xs is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// RejectOutliers removes measurements "far away from the average", which
// "may result from system perturbations, such as interrupts" (paper §3).
// It uses a robust median-based filter: samples farther than k times the
// median absolute deviation (scaled to σ) from the median are dropped.
// It returns the surviving samples (order preserved, xs never modified)
// and the number rejected. With fewer than 4 samples it returns the input
// unchanged.
//
// When the filter would leave fewer than 2 survivors it gives up and
// returns the full input with rejected = 0 and abandoned = true: the
// window is so contaminated that "outlier" has no meaning, and callers
// (Rating.Abandoned) must not mistake the give-up for a clean window.
func RejectOutliers(xs []float64, k float64) (kept []float64, rejected int, abandoned bool) {
	if len(xs) < 4 {
		return xs, 0, false
	}
	med := Median(xs)
	devs := make([]float64, len(xs))
	for i, x := range xs {
		devs[i] = math.Abs(x - med)
	}
	mad := Median(devs)
	if mad == 0 {
		// Fall back to a relative threshold for near-identical samples.
		mad = math.Abs(med) * 1e-6
		if mad == 0 {
			return xs, 0, false
		}
	}
	sigma := 1.4826 * mad // MAD→σ for a normal distribution
	kept = make([]float64, 0, len(xs))
	for _, x := range xs {
		if math.Abs(x-med) <= k*sigma {
			kept = append(kept, x)
		} else {
			rejected++
		}
	}
	if len(kept) < 2 { // never reject almost everything
		return xs, 0, true
	}
	return kept, rejected, false
}

// RejectOutliersSorted is RejectOutliers for a caller that keeps its
// samples in ascending order as well: sorted must hold exactly xs's
// values, ordered as sort.Float64s orders them, and all of them finite.
// The median is then a lookup and the median absolute deviation a merge
// of the deviations on either side of the median, so the filter costs
// O(n) with no sort. The survivors are appended to buf[:0] in xs's order
// — all of xs when the filter keeps everything (fewer than 4 samples, a
// zero spread, or a give-up) — so kept never aliases xs and the caller
// can pass it back as the next call's buf. Results (kept values and their
// order, rejected, abandoned) equal RejectOutliers(xs, k) bit for bit.
func RejectOutliersSorted(xs, sorted []float64, k float64, buf []float64) (kept []float64, rejected int, abandoned bool) {
	n := len(sorted)
	if n < 4 {
		return append(buf[:0], xs...), 0, false
	}
	med := sorted[n/2]
	if n%2 == 0 {
		med = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	// Deviations grow outward from the median on both sides, so the two
	// runs are each ascending and merging them yields the sorted
	// deviations; only the lower half of the merge is needed.
	dev := func(i int) float64 { return math.Abs(sorted[i] - med) }
	left := sort.SearchFloat64s(sorted, med) // sorted[:left] < med
	l, r := left-1, left
	var prev, cur float64
	for i := 0; i <= n/2; i++ {
		prev = cur
		if r >= n || (l >= 0 && dev(l) <= dev(r)) {
			cur = dev(l)
			l--
		} else {
			cur = dev(r)
			r++
		}
	}
	mad := cur
	if n%2 == 0 {
		mad = (prev + cur) / 2
	}
	if mad == 0 {
		mad = math.Abs(med) * 1e-6
		if mad == 0 {
			return append(buf[:0], xs...), 0, false
		}
	}
	sigma := 1.4826 * mad
	kept = buf[:0]
	for _, x := range xs {
		if math.Abs(x-med) <= k*sigma {
			kept = append(kept, x)
		} else {
			rejected++
		}
	}
	if len(kept) < 2 {
		return append(kept[:0], xs...), 0, true
	}
	return kept, rejected, false
}

// RatingError computes the paper's rating-error statistics (Eqs. 8–10) for
// a vector of sampled ratings V_i. For CBR/MBR the error is X_i = V_i/mean−1
// (ideal = the grand mean); for RBR the error is X_i = V_i − 1 (ideal = 1,
// since the experimental version equals the base). relative selects the
// former.
func RatingError(ratings []float64, relative bool) (mu, sigma float64) {
	if len(ratings) == 0 {
		return 0, 0
	}
	xs := make([]float64, len(ratings))
	if relative {
		vbar := Mean(ratings)
		if vbar == 0 {
			return 0, 0
		}
		for i, v := range ratings {
			xs[i] = v/vbar - 1
		}
	} else {
		for i, v := range ratings {
			xs[i] = v - 1
		}
	}
	return Mean(xs), StdDev(xs)
}
