package core

import "math"

// Golden-output verification (active only under fault injection): every
// compiled non-base version is executed over a short, deterministic
// verification workload and its outputs — return values and final memory —
// are compared against the base "-O3" version's. The paper's flag removals
// are semantics-preserving (every version computes the same results, which
// an empirical sweep over all 38 single-flag removals confirms bit-exactly
// on every benchmark), so any output divergence beyond float tolerance
// means a miscompile, and the flag set is quarantined: removed from the
// search and recorded in TuneResult.Quarantined rather than rated on
// garbage output.
const (
	// verifyInvocations is how many TS invocations the verification
	// workload runs (capped by the dataset size).
	verifyInvocations = 5
	// verifyStepFactor bounds a candidate run at this multiple of the
	// golden run's dynamic instruction count, so a miscompiled runaway
	// loop is killed (sim.ErrStepLimit) instead of hanging the tuner.
	verifyStepFactor = 50
	// verifyRelTol is the relative output tolerance. Flag removals
	// reproduce base outputs bit-exactly here, so the tolerance only has
	// to stay above float noise, far below any real corruption.
	verifyRelTol = 1e-9
)

// goldenRef is the base version's verification reference.
type goldenRef struct {
	rets      []float64            // per-invocation return values
	mem       map[string][]float64 // final array contents
	maxInstrs int64                // largest per-invocation instruction count
}

// closeEnough reports a ≈ b within verifyRelTol (relative to the larger
// magnitude, with an absolute floor of 1). NaN matches NaN: an
// uncorrupted version reproduces the base's NaNs exactly.
func closeEnough(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
	return diff <= verifyRelTol*scale
}

func floatsClose(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !closeEnough(a[i], b[i]) {
			return false
		}
	}
	return true
}

func memClose(a, b map[string][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for name, ad := range a {
		bd, ok := b[name]
		if !ok || !floatsClose(ad, bd) {
			return false
		}
	}
	return true
}
