// Package core implements the paper's contribution: the three optimization
// rating methods — context-based (CBR), model-based (MBR), and
// re-execution-based (RBR) rating — together with the two baselines the
// paper compares against (AVG and WHL), the Rating Approach Consultant that
// selects among them, and the PEAK tuning engine that drives an Iterative
// Elimination search over compiler optimization flags using those ratings.
package core

import (
	"fmt"

	"peak/internal/fault"
	"peak/internal/machine"
	"peak/internal/noise"
	"peak/internal/sim"
)

// Method identifies a rating method.
type Method int

// Rating methods. CBR, MBR and RBR are the paper's contributions (§2);
// AVG and WHL are the baselines of §5.2.
const (
	// MethodCBR compares invocations that share an execution context.
	MethodCBR Method = iota
	// MethodMBR fits T_TS = Σ T_i·C_i across contexts by regression.
	MethodMBR
	// MethodRBR re-executes base and experimental versions in the same
	// context (improved variant: preconditioning plus order swapping).
	MethodRBR
	// MethodAVG naively averages invocation times regardless of context.
	MethodAVG
	// MethodWHL times whole-program runs, one per version (the
	// state-of-the-art baseline the paper reduces tuning time against).
	MethodWHL
)

var methodNames = [...]string{"CBR", "MBR", "RBR", "AVG", "WHL"}

func (m Method) String() string {
	if m >= 0 && int(m) < len(methodNames) {
		return methodNames[m]
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// ParseMethod converts a method name.
func ParseMethod(s string) (Method, bool) {
	for i, n := range methodNames {
		if n == s {
			return Method(i), true
		}
	}
	return 0, false
}

// Rating is the paper's (EVAL, VAR) pair for one version under one rating
// method (§3), plus bookkeeping.
type Rating struct {
	Method Method
	// EVAL is the rating value. For CBR/MBR/AVG/WHL it estimates execution
	// time (lower is better); for RBR it is the mean relative improvement
	// of the experimental over the base version (higher is better).
	EVAL float64
	// VAR is the method's rating variance: sample variance of the window
	// for CBR/AVG/RBR, SSR/SST of the regression for MBR.
	VAR float64
	// Samples is the number of measurements incorporated; Outliers the
	// number rejected.
	Samples  int
	Outliers int
	// CIHalf is the half-width of the Student-t confidence interval around
	// EVAL at the config's confidence level (+Inf below 2 samples; 0 for
	// MBR/WHL, whose VAR is not a sample variance).
	CIHalf float64
	// Abandoned reports that outlier rejection gave up on this window (it
	// would have discarded nearly every sample), so EVAL/VAR come from the
	// raw, contaminated window.
	Abandoned bool
}

// ImprovementOver returns the relative improvement the rated experimental
// version achieves over a base rated baseEval with the same method
// (positive = experimental faster). For RBR the rating itself encodes the
// improvement and baseEval is ignored.
func (a Rating) ImprovementOver(baseEval float64) float64 {
	if a.Method == MethodRBR {
		return a.EVAL - 1
	}
	if a.EVAL == 0 {
		return 0
	}
	return baseEval/a.EVAL - 1
}

// ConvergenceMode selects how the windowed raters (CBR, AVG, RBR) decide
// that a rating is consistent enough.
type ConvergenceMode int

const (
	// ConvergeCI (the default) declares convergence when the Student-t
	// confidence interval around the window mean, at the config's
	// Confidence level, has relative half-width below CIRelThreshold.
	// Paired with significance gating in the engine (Welch's t-test for
	// CBR, CI-contains-1 for RBR), it follows the statistically rigorous
	// speedup methodology of Touati et al. rather than raw mean comparison.
	ConvergeCI ConvergenceMode = iota
	// ConvergeStdErr is the legacy criterion: relative standard error of
	// the window mean below VarThreshold, winners picked by raw means.
	ConvergeStdErr
)

// Config holds the tuning-time parameters of the rating process (§3).
type Config struct {
	// Window is the number of invocation measurements per rating window
	// (w in Table 1).
	Window int
	// VarThreshold is the convergence threshold: for CBR/AVG/RBR the
	// relative standard error of the window mean must fall below it; for
	// MBR the regression's SSR/SST must.
	VarThreshold float64
	// MBRVarThreshold is the residual-variance bound for MBR convergence.
	MBRVarThreshold float64
	// OutlierK is the MAD-based outlier rejection multiplier.
	OutlierK float64
	// MaxInvPerVersion bounds invocations spent on one version before the
	// engine abandons the current rating method and switches to the next
	// applicable one (§3).
	MaxInvPerVersion int
	// SaveRestoreCyclesPerElem is the RBR overhead charged per element of
	// Modified_Input(TS) saved or restored.
	SaveRestoreCyclesPerElem int64
	// BasicRBR selects the paper's basic Figure-3 re-execution method
	// (no cache preconditioning, no order swapping) instead of the
	// improved Figure-4 method. Kept for the §2.4 ablation: the first
	// timed execution "may precondition the cache, affecting the second
	// one", which biases the basic method's ratings. It applies to a tune
	// and to Consistency alike.
	BasicRBR bool
	// RBRInspector replaces the whole-array save/restore of
	// Modified_Input(TS) with the paper's inspector optimization
	// (§2.4.2): the runs record the addresses and old values of their
	// write references, and the undo touches only those elements. Far
	// cheaper when the section writes sparsely into large inputs; the
	// ratings are identical, only the tuning time differs. It applies to
	// a tune and to Consistency alike, and is ignored under BasicRBR.
	RBRInspector bool
	// MaxContexts bounds CBR applicability ("to keep the number of
	// contexts reasonable", §2.2).
	MaxContexts int
	// MinDominantShare is the minimum fraction of invocations the dominant
	// context must cover for CBR to be worthwhile.
	MinDominantShare float64
	// MaxComponents bounds MBR applicability ("if there are many
	// components ... MBR is not applied", §2.3).
	MaxComponents int
	// MBRMaxProfileVar is the maximum profile-run SSR/SST for MBR to be
	// considered accurate enough (rejects highly irregular codes).
	MBRMaxProfileVar float64
	// ImprovementThreshold is the minimum relative improvement Iterative
	// Elimination requires to keep a flag removal.
	ImprovementThreshold float64
	// Seed drives measurement noise.
	Seed int64
	// Convergence selects the convergence criterion; the zero value is
	// ConvergeCI.
	Convergence ConvergenceMode
	// Confidence is the two-sided confidence level for intervals and Welch
	// tests under ConvergeCI (0 means 0.95).
	Confidence float64
	// CIRelThreshold is the ConvergeCI bound on CI half-width relative to
	// the window mean (0 means 0.01).
	CIRelThreshold float64
	// EscalationBudget is the number of invocations after which a still
	// wide CBR or AVG candidate rating escalates to RBR for the round
	// (graceful degradation before the round-level method switch). 0 means
	// MaxInvPerVersion/3; negative disables escalation.
	EscalationBudget int
	// Noise overrides the machine's default measurement-noise model (see
	// Config.NoiseModel); nil keeps the machine default.
	Noise *noise.Model
	// Faults enables deterministic fault injection: transient compile
	// failures, miscompiles (caught by golden-output verification and
	// quarantined), measurement hangs (retried with backoff), and rating-
	// job panics (isolated and retried). Nil — or a plan with all rates
	// zero — disables injection entirely and the engine's recovery
	// machinery stays out of the measurement path, so fault-free outputs
	// are byte-identical to builds without this feature. The determinism
	// contract extends to injection: same seed + same plan ⇒ byte-identical
	// results at any worker count, cache on or off, resumed or not.
	Faults *fault.Plan
	// NoCompileCache disables the compile cache (internal/vcache): every
	// tune falls back to a private per-tune memo table with direct
	// compilation. Outputs are bit-identical either way (compilation is
	// deterministic); the switch exists for benchmarking the cache and for
	// the determinism cross-check in the test suite.
	NoCompileCache bool
}

// confidence returns the effective confidence level.
func (c *Config) confidence() float64 {
	if c.Confidence == 0 {
		return 0.95
	}
	return c.Confidence
}

// ciRelThreshold returns the effective ConvergeCI threshold.
func (c *Config) ciRelThreshold() float64 {
	if c.CIRelThreshold == 0 {
		return 0.01
	}
	return c.CIRelThreshold
}

// escalationBudget returns the effective escalation budget (0 = disabled).
func (c *Config) escalationBudget() int {
	if c.EscalationBudget < 0 {
		return 0
	}
	if c.EscalationBudget == 0 {
		return c.MaxInvPerVersion / 3
	}
	return c.EscalationBudget
}

// NoiseModel returns the measurement-noise model rating runs under on
// machine m: c.Noise when set, otherwise the machine's default
// jitter-plus-spikes model (sim.DefaultNoise).
func (c *Config) NoiseModel(m *machine.Machine) noise.Model {
	if c.Noise != nil {
		return *c.Noise
	}
	return sim.DefaultNoise(m)
}

// DefaultConfig mirrors the paper's operating point (window sizes of tens
// of invocations, §5.1).
func DefaultConfig() Config {
	return Config{
		Window:                   40,
		VarThreshold:             0.005,
		MBRVarThreshold:          0.02,
		OutlierK:                 4,
		MaxInvPerVersion:         1200,
		SaveRestoreCyclesPerElem: 2,
		MaxContexts:              8,
		MinDominantShare:         0.02,
		MaxComponents:            6,
		MBRMaxProfileVar:         0.05,
		ImprovementThreshold:     0.01,
		Seed:                     2004,
		Convergence:              ConvergeCI,
		Confidence:               0.95,
		CIRelThreshold:           0.01,
	}
}
