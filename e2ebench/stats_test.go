package main

import (
	"math"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{0, 0}, {1, 0}, {10, 0}, // n < 11: no tail
		{11, 9},
		{20, 50},
		{50, 80},
		{52, 80}, // serve-cold: p80
		{100, 90},
		{140, 92},  // table1, five passes
		{346, 97},  // serve-warm, one pass
		{1000, 99}, // ten samples beyond p99
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", tc.n, got, tc.want)
		}
		// The rule itself: at least ten samples beyond the percentile, and
		// fewer than ten beyond the next one up.
		if p := tailPercentile(tc.n); p > 0 {
			if beyond := float64(tc.n) * (1 - float64(p)/100); beyond < tailSamples-1e-9 {
				t.Errorf("n=%d: p%d leaves %.2f samples beyond it", tc.n, p, beyond)
			}
			if p < 99 {
				if beyond := float64(tc.n) * (1 - float64(p+1)/100); beyond >= tailSamples-1e-9 {
					t.Errorf("n=%d: p%d is not the highest supported percentile", tc.n, p)
				}
			}
		}
	}
}

// TestSummarize pins the quartiles to Python's statistics.quantiles
// (method "exclusive"), which the benchmark's consumers use.
func TestSummarize(t *testing.T) {
	for _, tc := range []struct {
		name          string
		xs            []float64
		q1, med, q3   float64
		tailPct       int
		tail          float64
		wantTailValue bool
	}{
		// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
		{name: "four", xs: []float64{4, 1, 3, 2}, q1: 1.25, med: 2.5, q3: 3.75},
		// statistics.quantiles([1..9], n=4) == [2.5, 5.0, 7.5]
		{name: "nine", xs: []float64{9, 8, 7, 6, 5, 4, 3, 2, 1}, q1: 2.5, med: 5, q3: 7.5},
		// one value: every quantile is that value
		{name: "one", xs: []float64{7}, q1: 7, med: 7, q3: 7},
		// 1..52: p80 at position 0.8·53 = 42.4, ten values beyond it
		{name: "fifty-two", xs: seq(52), q1: 13.25, med: 26.5, q3: 39.75, tailPct: 80, tail: 42.4, wantTailValue: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := summarize(tc.xs)
			if s.N != len(tc.xs) {
				t.Errorf("n = %d, want %d", s.N, len(tc.xs))
			}
			for _, c := range []struct {
				what      string
				got, want float64
			}{{"q1", s.Q1, tc.q1}, {"median", s.Median, tc.med}, {"q3", s.Q3, tc.q3}} {
				if math.Abs(c.got-c.want) > 1e-9 {
					t.Errorf("%s = %v, want %v", c.what, c.got, c.want)
				}
			}
			if s.TailPct != tc.tailPct {
				t.Errorf("tail percentile = %d, want %d", s.TailPct, tc.tailPct)
			}
			if tc.wantTailValue && math.Abs(s.Tail-tc.tail) > 1e-9 {
				t.Errorf("tail = %v, want %v", s.Tail, tc.tail)
			}
		})
	}
	if s := summarize(nil); s.N != 0 || s.TailPct != 0 {
		t.Errorf("empty sample: %+v", s)
	}
}

func TestGmean(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{1, 100}, 10},
		{[]float64{2, 8, 4}, 4},
	} {
		if got := gmean(tc.xs); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("gmean(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if got := gmean(nil); !math.IsNaN(got) {
		t.Errorf("gmean(nil) = %v, want NaN", got)
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}
