package regress

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPaperFigure2Example(t *testing.T) {
	// The worked MBR example of paper Figure 2: Y and C collected over five
	// invocations yield T = [110.05, 3.75].
	y := []float64{11015, 5508, 6626, 6044, 8793}
	x := [][]float64{
		{100, 1},
		{50, 1},
		{60, 1},
		{55, 1},
		{80, 1},
	}
	res, err := Solve(x, y)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !almostEqual(res.Coef[0], 110.05, 0.01) || !almostEqual(res.Coef[1], 3.75, 0.5) {
		t.Errorf("T = [%.2f, %.2f], want [110.05, 3.75]", res.Coef[0], res.Coef[1])
	}
	if res.VarRatio() > 0.001 {
		t.Errorf("VAR = %v, want near 0 for the paper's example", res.VarRatio())
	}
}

func TestExactFitRecovered(t *testing.T) {
	// y = 3x1 - 2x2 + 7 exactly.
	rng := rand.New(rand.NewSource(1))
	var x [][]float64
	var y []float64
	for i := 0; i < 30; i++ {
		a, b := rng.Float64()*10, rng.Float64()*10
		x = append(x, []float64{a, b, 1})
		y = append(y, 3*a-2*b+7)
	}
	res, err := Solve(x, y)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	want := []float64{3, -2, 7}
	for i, w := range want {
		if !almostEqual(res.Coef[i], w, 1e-8) {
			t.Errorf("coef[%d] = %v, want %v", i, res.Coef[i], w)
		}
	}
	if v := res.VarRatio(); !almostEqual(v, 0, 1e-9) {
		t.Errorf("VarRatio = %v, want 0", v)
	}
}

func TestNoisyFitReasonable(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var x [][]float64
	var y []float64
	for i := 0; i < 400; i++ {
		a := rng.Float64() * 100
		x = append(x, []float64{a, 1})
		y = append(y, 5*a+100+rng.NormFloat64()*10)
	}
	res, err := Solve(x, y)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !almostEqual(res.Coef[0], 5, 0.1) {
		t.Errorf("slope = %v, want ~5", res.Coef[0])
	}
	if res.VarRatio() > 0.05 {
		t.Errorf("VAR = %v, want small for mostly-linear data", res.VarRatio())
	}
}

func TestSingularSystems(t *testing.T) {
	// Fewer observations than coefficients.
	if _, err := Solve([][]float64{{1, 2, 3}}, []float64{1}); err == nil {
		t.Error("underdetermined system did not fail")
	}
	// Perfectly collinear predictors.
	x := [][]float64{{1, 2}, {2, 4}, {3, 6}, {4, 8}}
	y := []float64{1, 2, 3, 4}
	if _, err := Solve(x, y); err == nil {
		t.Error("collinear system did not fail")
	}
}

func TestInputValidation(t *testing.T) {
	if _, err := Solve(nil, nil); err == nil {
		t.Error("empty input did not fail")
	}
	if _, err := Solve([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths did not fail")
	}
	if _, err := Solve([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
		t.Error("ragged matrix did not fail")
	}
	if _, err := Solve([][]float64{{}, {}}, []float64{1, 2}); err == nil {
		t.Error("zero predictors did not fail")
	}
}

// TestQuickExactRecovery is a property test: for random well-conditioned
// linear systems, Solve recovers the generating coefficients.
func TestQuickExactRecovery(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(4)
		n := p + 5 + rng.Intn(20)
		coef := make([]float64, p)
		for i := range coef {
			coef[i] = rng.Float64()*20 - 10
		}
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			row := make([]float64, p)
			dot := 0.0
			for j := 0; j < p; j++ {
				row[j] = rng.Float64()*10 + float64(j) // well-spread
				dot += row[j] * coef[j]
			}
			x[i] = row
			y[i] = dot
		}
		res, err := Solve(x, y)
		if err != nil {
			return false
		}
		for j := 0; j < p; j++ {
			if !almostEqual(res.Coef[j], coef[j], 1e-6*(1+math.Abs(coef[j]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickResidualInvariants: SSR >= 0, SST >= 0, and for a model with an
// intercept-like column the fit's SSR never exceeds SST by more than
// rounding.
func TestQuickResidualInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(30)
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			x[i] = []float64{rng.Float64() * 10, 1}
			y[i] = rng.Float64() * 100
		}
		res, err := Solve(x, y)
		if err != nil {
			return true // singular by chance: fine
		}
		if res.SSR < -1e-9 || res.SST < -1e-9 {
			return false
		}
		return res.SSR <= res.SST*(1+1e-9)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
