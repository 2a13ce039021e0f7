package main

import (
	"math"
	"sort"
)

// summary describes one sample of timings: its median and quartiles, the
// sample count, and the tail percentile the sample can support.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// TailPct is the highest whole percentile with at least ten samples
	// beyond it (0 when n < 11: the sample supports no tail); Tail is the
	// value at that percentile.
	TailPct int     `json:"tail_pct"`
	Tail    float64 `json:"tail"`
}

// tailSamples is the number of samples a reported tail percentile must
// have beyond it.
const tailSamples = 10

// summarize computes the summary of xs (which it does not modify).
func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = quantile(sorted, 0.5)
	s.Q1 = quantile(sorted, 0.25)
	s.Q3 = quantile(sorted, 0.75)
	if s.TailPct = tailPercentile(len(xs)); s.TailPct > 0 {
		s.Tail = quantile(sorted, float64(s.TailPct)/100)
	}
	return s
}

// tailPercentile is the highest whole percentile P for which a sample of n
// leaves at least tailSamples values beyond P, i.e. n·(1 − P/100) ≥ 10:
// n = 52 gives 80, n = 350 gives 97, and any n < 11 gives 0 (no tail).
func tailPercentile(n int) int {
	if n <= tailSamples {
		return 0
	}
	return 100 * (n - tailSamples) / n
}

// quantile returns the p-quantile of sorted data by the "exclusive" method
// (position p·(n+1), linear interpolation, clamped to the extremes) — the
// method of Python's statistics.quantiles, so quartiles here match the ones
// computed over the benchmark's JSON output.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := p * float64(n+1)
	j := int(math.Floor(pos))
	if j < 1 {
		return sorted[0]
	}
	if j >= n {
		return sorted[n-1]
	}
	return sorted[j-1] + (pos-float64(j))*(sorted[j]-sorted[j-1])
}

// gmean is the geometric mean of xs (all positive); NaN for no samples.
func gmean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var logs float64
	for _, x := range xs {
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}
