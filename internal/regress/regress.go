// Package regress implements the least-squares linear regression that MBR
// uses to solve Y = T·C for the component-time vector T (paper Eq. 3), via
// the normal equations and Gaussian elimination with partial pivoting.
package regress

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when the normal equations are (numerically)
// singular — e.g. fewer distinct invocations than components.
var ErrSingular = errors.New("regress: singular system")

// Result holds a fitted model.
type Result struct {
	// Coef is the fitted coefficient vector (T in the paper).
	Coef []float64
	// SSR is the sum of squared residuals; SST the total sum of squares of
	// the observations. Their ratio is MBR's rating variance VAR (paper §3).
	SSR, SST float64
}

// VarRatio returns SSR/SST, the paper's VAR for MBR (0 when SST is 0).
func (r *Result) VarRatio() float64 {
	if r.SST == 0 {
		return 0
	}
	return r.SSR / r.SST
}

// Solve fits y ≈ X·coef by least squares. X is row-major: X[i] is the
// predictor vector of observation i (the component counts C(·,i)); y[i] is
// the observed TS invocation time. It requires len(X) ≥ len(X[0]) ≥ 1.
func Solve(x [][]float64, y []float64) (*Result, error) {
	n := len(x)
	if n == 0 || n != len(y) {
		return nil, fmt.Errorf("regress: need matching non-empty X (%d rows) and y (%d)", n, len(y))
	}
	p := len(x[0])
	if p == 0 {
		return nil, errors.New("regress: zero predictors")
	}
	for i, row := range x {
		if len(row) != p {
			return nil, fmt.Errorf("regress: ragged X at row %d", i)
		}
	}
	if n < p {
		return nil, fmt.Errorf("%w: %d observations for %d coefficients", ErrSingular, n, p)
	}

	// Normal equations: (XᵀX) coef = Xᵀy.
	xtx := make([][]float64, p)
	for i := range xtx {
		xtx[i] = make([]float64, p)
	}
	xty := make([]float64, p)
	for k := 0; k < n; k++ {
		row := x[k]
		for i := 0; i < p; i++ {
			xty[i] += row[i] * y[k]
			for j := i; j < p; j++ {
				xtx[i][j] += row[i] * row[j]
			}
		}
	}
	for i := 0; i < p; i++ {
		for j := 0; j < i; j++ {
			xtx[i][j] = xtx[j][i]
		}
	}

	coef, err := gauss(xtx, xty)
	if err != nil {
		return nil, err
	}

	res := &Result{Coef: coef}
	ybar := 0.0
	for _, v := range y {
		ybar += v
	}
	ybar /= float64(n)
	for k := 0; k < n; k++ {
		pred := 0.0
		for i := 0; i < p; i++ {
			pred += x[k][i] * coef[i]
		}
		r := y[k] - pred
		res.SSR += r * r
		d := y[k] - ybar
		res.SST += d * d
	}
	return res, nil
}

// gauss solves a·x = b in place with partial pivoting.
func gauss(a [][]float64, b []float64) ([]float64, error) {
	n := len(b)
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-12 {
			return nil, fmt.Errorf("%w: pivot %d", ErrSingular, col)
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	// Back substitution.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= a[i][j] * x[j]
		}
		x[i] = s / a[i][i]
	}
	return x, nil
}
