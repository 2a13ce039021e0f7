package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWelfordMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 500)
	var w Welford
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 10
		w.Add(xs[i])
	}
	if math.Abs(w.Mean()-Mean(xs)) > 1e-9 {
		t.Errorf("Welford mean %v != batch mean %v", w.Mean(), Mean(xs))
	}
	if math.Abs(w.Variance()-Variance(xs)) > 1e-9 {
		t.Errorf("Welford variance %v != batch variance %v", w.Variance(), Variance(xs))
	}
	if w.N() != len(xs) {
		t.Errorf("N = %d, want %d", w.N(), len(xs))
	}
	w.Reset()
	if w.N() != 0 || w.Mean() != 0 || w.Variance() != 0 {
		t.Error("Reset did not clear the accumulator")
	}
}

func TestWelfordEdgeCases(t *testing.T) {
	var w Welford
	if w.Variance() != 0 || w.StdDev() != 0 {
		t.Error("empty accumulator must have zero variance")
	}
	w.Add(5)
	if w.Mean() != 5 || w.Variance() != 0 {
		t.Errorf("single sample: mean=%v var=%v", w.Mean(), w.Variance())
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1}, 2},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// Median must not mutate its input.
	in := []float64{9, 1, 5}
	Median(in)
	if in[0] != 9 || in[1] != 1 || in[2] != 5 {
		t.Error("Median mutated its input")
	}
}

func TestRejectOutliers(t *testing.T) {
	// A clear outlier among tight samples is rejected (paper §3:
	// "measurement outliers ... may result from system perturbations").
	xs := []float64{100, 101, 99, 100.5, 99.5, 100.2, 400}
	kept, rejected, _ := RejectOutliers(xs, 4)
	if rejected != 1 || len(kept) != 6 {
		t.Fatalf("rejected=%d kept=%d, want 1/6", rejected, len(kept))
	}
	for _, x := range kept {
		if x == 400 {
			t.Error("outlier survived")
		}
	}
}

func TestRejectOutliersSmallAndUniform(t *testing.T) {
	xs := []float64{1, 2, 3}
	kept, rejected, _ := RejectOutliers(xs, 3)
	if rejected != 0 || len(kept) != 3 {
		t.Error("fewer than 4 samples must pass through unchanged")
	}
	same := []float64{7, 7, 7, 7, 7}
	kept, rejected, _ = RejectOutliers(same, 3)
	if rejected != 0 || len(kept) != 5 {
		t.Error("identical samples must pass through unchanged")
	}
	zeros := []float64{0, 0, 0, 0}
	kept, rejected, _ = RejectOutliers(zeros, 3)
	if rejected != 0 || len(kept) != 4 {
		t.Error("all-zero samples must pass through unchanged")
	}
}

func TestRatingError(t *testing.T) {
	// RBR form (Eq. 8, bottom): X_i = V_i - 1.
	mu, sigma := RatingError([]float64{1.0, 1.02, 0.98}, false)
	if math.Abs(mu) > 1e-9 {
		t.Errorf("RBR mu = %v, want 0", mu)
	}
	if math.Abs(sigma-0.02) > 1e-9 {
		t.Errorf("RBR sigma = %v, want 0.02", sigma)
	}
	// CBR/MBR form (Eq. 8, top): X_i = V_i/mean - 1, so mu is exactly 0.
	mu, sigma = RatingError([]float64{100, 104, 96}, true)
	if math.Abs(mu) > 1e-12 {
		t.Errorf("relative mu = %v, want 0", mu)
	}
	if sigma <= 0 {
		t.Errorf("relative sigma = %v, want > 0", sigma)
	}
	if mu, sigma = RatingError(nil, true); mu != 0 || sigma != 0 {
		t.Error("empty rating vector must give zeros")
	}
}

// Property: outlier rejection never increases the spread and never removes
// more than it keeps.
func TestQuickRejectOutliersInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(60)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
			if rng.Float64() < 0.1 {
				xs[i] *= 50 // inject outliers
			}
		}
		kept, rejected, _ := RejectOutliers(xs, 3.5)
		if len(kept)+rejected != n && rejected != 0 {
			return false
		}
		if len(kept) < 2 {
			return false
		}
		return StdDev(kept) <= StdDev(xs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: variance is translation invariant and scales quadratically.
func TestQuickVarianceProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		xs := make([]float64, n)
		shifted := make([]float64, n)
		scaled := make([]float64, n)
		shift := rng.Float64()*100 - 50
		scale := rng.Float64()*4 + 0.5
		for i := range xs {
			xs[i] = rng.NormFloat64() * 5
			shifted[i] = xs[i] + shift
			scaled[i] = xs[i] * scale
		}
		v := Variance(xs)
		tol := 1e-7 * (1 + v)
		return math.Abs(Variance(shifted)-v) < tol &&
			math.Abs(Variance(scaled)-v*scale*scale) < tol*scale*scale*10+1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
