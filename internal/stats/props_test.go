package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// --- RejectOutliers properties ----------------------------------------------

// Property: RejectOutliers never mutates its input slice.
func TestPropRejectOutliersDoesNotMutateInput(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(80)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
			if rng.Float64() < 0.15 {
				xs[i] *= 40
			}
		}
		orig := append([]float64(nil), xs...)
		RejectOutliers(xs, 2+rng.Float64()*4)
		for i := range xs {
			if xs[i] != orig[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the kept multiset is permutation-invariant — shuffling the
// input changes at most the order of what survives, never the contents,
// the rejection count, or the abandoned signal.
func TestPropRejectOutliersPermutationInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(60)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
			if rng.Float64() < 0.1 {
				xs[i] *= 60
			}
		}
		k := 2 + rng.Float64()*4
		kept1, rej1, ab1 := RejectOutliers(xs, k)

		perm := append([]float64(nil), xs...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		kept2, rej2, ab2 := RejectOutliers(perm, k)

		if rej1 != rej2 || ab1 != ab2 || len(kept1) != len(kept2) {
			return false
		}
		s1 := append([]float64(nil), kept1...)
		s2 := append([]float64(nil), kept2...)
		sort.Float64s(s1)
		sort.Float64s(s2)
		for i := range s1 {
			if s1[i] != s2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRejectOutliersAbandonedSignal(t *testing.T) {
	// Evenly spread samples with a vanishing k: every point is farther than
	// k·σ from the median, so fewer than 2 would survive — the filter must
	// give up and say so rather than claim a clean window.
	xs := []float64{0, 100, 200, 300}
	kept, rejected, abandoned := RejectOutliers(xs, 0.0001)
	if !abandoned {
		t.Fatalf("kept=%d rejected=%d: filter did not report abandonment", len(kept), rejected)
	}
	if rejected != 0 || len(kept) != len(xs) {
		t.Errorf("abandoned filter must return the input unchanged (kept=%d rejected=%d)",
			len(kept), rejected)
	}
	// A clean rejection is not abandoned.
	if _, _, ab := RejectOutliers([]float64{10, 10.1, 9.9, 10.05, 500}, 4); ab {
		t.Error("normal rejection reported abandoned")
	}
}

// --- Welford vs batch property ----------------------------------------------

// Property: Welford's running mean/variance agree with the batch formulas
// to 1e-9 over random streams (satellite requirement).
func TestPropWelfordMatchesBatch(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(500)
		scale := math.Exp(rng.Float64()*8 - 4)
		shift := rng.NormFloat64() * 100
		xs := make([]float64, n)
		var w Welford
		for i := range xs {
			xs[i] = rng.NormFloat64()*scale + shift
			w.Add(xs[i])
		}
		mRef, vRef := Mean(xs), Variance(xs)
		tol := 1e-9 * (1 + math.Abs(mRef))
		vTol := 1e-9 * (1 + vRef)
		return math.Abs(w.Mean()-mRef) < tol && math.Abs(w.Variance()-vRef) < vTol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// --- Student-t / Welch machinery --------------------------------------------

func TestTCriticalAgainstTables(t *testing.T) {
	cases := []struct {
		df   float64
		conf float64
		want float64
	}{
		{1, 0.95, 12.7062},
		{2, 0.95, 4.3027},
		{5, 0.95, 2.5706},
		{10, 0.95, 2.2281},
		{30, 0.95, 2.0423},
		{100, 0.95, 1.9840},
		{10, 0.99, 3.1693},
		{30, 0.99, 2.7500},
		{39, 0.95, 2.0227},
	}
	for _, c := range cases {
		got := TCritical(c.df, c.conf)
		if math.Abs(got-c.want) > 2e-4 {
			t.Errorf("TCritical(%v, %v) = %v, want %v", c.df, c.conf, got, c.want)
		}
	}
	// Monotone in df toward the normal quantile.
	if TCritical(5, 0.95) <= TCritical(50, 0.95) {
		t.Error("t critical must shrink as df grows")
	}
	if z := TCritical(1e7, 0.95); math.Abs(z-1.95996) > 1e-3 {
		t.Errorf("TCritical(1e7, .95) = %v, want ~1.96", z)
	}
}

func TestWelchTKnownCase(t *testing.T) {
	// Worked example with unequal variances; reference values computed
	// independently from the textbook formulas.
	a := []float64{27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6, 23.1, 19.6, 19.0, 21.7, 21.4}
	b := []float64{27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2, 21.9, 22.1, 22.9, 30.5, 24.1}
	tStat, df := WelchT(Mean(a), Variance(a), len(a), Mean(b), Variance(b), len(b))
	if math.Abs(tStat-(-2.8353)) > 0.001 {
		t.Errorf("Welch t = %v, want ≈ -2.8353", tStat)
	}
	if math.Abs(df-27.8806) > 0.01 {
		t.Errorf("Welch df = %v, want ≈ 27.8806", df)
	}
	if !WelchSignificant(Mean(a), Variance(a), len(a), Mean(b), Variance(b), len(b), 0.95) {
		t.Error("|t|=2.84 at df≈27.9 must be significant at 95%")
	}
	if WelchSignificant(Mean(a), Variance(a), len(a), Mean(b), Variance(b), len(b), 0.999) {
		t.Error("|t|=2.84 at df≈27.9 must not be significant at 99.9%")
	}

	// Exact analytic case from summary statistics: a = v1/n1 = 0.25,
	// b = v2/n2 = 0.25 ⇒ t = 1/√0.5 = √2 and df = 0.25·168 = 42 exactly.
	tStat, df = WelchT(10, 4, 16, 9, 9, 36)
	if math.Abs(tStat-math.Sqrt2) > 1e-12 {
		t.Errorf("analytic case t = %v, want √2", tStat)
	}
	if math.Abs(df-42) > 1e-9 {
		t.Errorf("analytic case df = %v, want 42", df)
	}
}

func TestWelchTDegenerateInputs(t *testing.T) {
	if tStat, df := WelchT(1, 0, 1, 2, 0, 1); tStat != 0 || df != 1 {
		t.Errorf("tiny samples: t=%v df=%v, want 0/1", tStat, df)
	}
	if tStat, _ := WelchT(5, 0, 10, 5, 0, 10); tStat != 0 {
		t.Errorf("identical zero-variance means: t=%v, want 0", tStat)
	}
	if tStat, _ := WelchT(6, 0, 10, 5, 0, 10); !math.IsInf(tStat, 1) {
		t.Errorf("distinct zero-variance means: t=%v, want +Inf", tStat)
	}
	if WelchSignificant(1, 1, 1, 2, 1, 1, 0.95) {
		t.Error("single-point samples can never be significant")
	}
}

// Welch-CI coverage on synthetic known-mean data (satellite requirement):
// the conf-level Student-t interval must contain the true mean in ≈ conf
// of repeated experiments.
func TestMeanCICoverage(t *testing.T) {
	const (
		trueMean = 5.0
		sd       = 2.0
		n        = 20
		reps     = 2000
		conf     = 0.95
	)
	rng := rand.New(rand.NewSource(7))
	covered := 0
	for r := 0; r < reps; r++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = trueMean + rng.NormFloat64()*sd
		}
		half := MeanCIHalf(Variance(xs), n, conf)
		if math.Abs(Mean(xs)-trueMean) <= half {
			covered++
		}
	}
	cov := float64(covered) / reps
	if cov < 0.93 || cov > 0.975 {
		t.Errorf("95%% CI covered the true mean in %.1f%% of %d experiments", 100*cov, reps)
	}
}

func TestMeanCIHalfEdge(t *testing.T) {
	if !math.IsInf(MeanCIHalf(1, 1, 0.95), 1) {
		t.Error("n<2 must yield an infinite interval")
	}
	// Wider confidence ⇒ wider interval; more samples ⇒ narrower.
	if MeanCIHalf(1, 10, 0.99) <= MeanCIHalf(1, 10, 0.95) {
		t.Error("99% interval must be wider than 95%")
	}
	if MeanCIHalf(1, 100, 0.95) >= MeanCIHalf(1, 10, 0.95) {
		t.Error("interval must shrink with sample count")
	}
}

// tCritCacheLen is the number of memoized critical values.
func tCritCacheLen() int {
	tCritCache.Lock()
	defer tCritCache.Unlock()
	return len(tCritCache.m)
}

// clearTCritCache empties the memo table, so a test can count what it adds.
func clearTCritCache() {
	tCritCache.Lock()
	defer tCritCache.Unlock()
	tCritCache.m = nil
}

// TestTCriticalCacheOnlyOnMeanCIPath: MeanCIHalf memoizes its integer
// degrees of freedom and returns exactly what TCritical computes, while
// WelchSignificant — whose Welch–Satterthwaite df is fractional and
// unbounded — leaves the table alone, even when its df is integral.
func TestTCriticalCacheOnlyOnMeanCIPath(t *testing.T) {
	const conf = 0.95
	clearTCritCache()
	// Equal variances and sizes give df = 2(n-1) = 18, an integer.
	WelchSignificant(10, 4, 10, 11, 4, 10, conf)
	WelchSignificant(10, 4, 10, 12, 9, 7, conf)
	if got := tCritCacheLen(); got != 0 {
		t.Fatalf("WelchSignificant put %d entries in the t-critical cache", got)
	}
	for _, n := range []int{2, 19, 1200, maxCachedDF + 2} {
		want := TCritical(float64(n-1), conf) * math.Sqrt(4/float64(n))
		for pass := 0; pass < 2; pass++ { // compute, then hit the table
			if got := MeanCIHalf(4, n, conf); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("n=%d pass %d: MeanCIHalf = %v, want %v", n, pass, got, want)
			}
		}
	}
	if got := tCritCacheLen(); got != 3 {
		t.Errorf("cache has %d entries after three cacheable dfs, want 3 (df above %d is not cached)", got, maxCachedDF)
	}
}
