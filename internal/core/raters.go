package core

import (
	"math"
	"slices"
	"sort"

	"peak/internal/analysis"
	"peak/internal/profiling"
	"peak/internal/regress"
	"peak/internal/sim"
	"peak/internal/stats"
)

// invocation carries one TS invocation through a rater.
type invocation struct {
	args   []float64
	key    string // CBR context key (pre-invocation)
	runner *sim.Runner
	clock  *sim.Clock
	mem    *sim.Memory
	best   *sim.Version
	exp    *sim.Version
}

// rater accumulates rating state for one experimental version.
type rater interface {
	method() Method
	// observe executes the TS for this invocation (the rater controls how:
	// one version, or RBR's save/run/restore/run sequence) and returns the
	// simulated cycles consumed, which the engine adds to the tuning-time
	// ledger.
	observe(ic *invocation) (int64, error)
	// rating computes the current EVAL/VAR.
	rating() Rating
	// converged reports whether the rating is consistent enough (§3).
	converged(cfg *Config) bool
	// used is the number of invocations consumed for this version.
	used() int
	// reset clears state for a new experimental version.
	reset()
}

// meanSamples implements the windowed mean/variance rating shared by AVG,
// CBR, RBR and constant-only MBR, with outlier elimination. Both rating()
// and the periodic convergence checks need the outlier filter's output, so
// the filtered window is cached and recomputed only when new samples have
// arrived since the last filter run. The filter itself is O(n): a sorted
// mirror of the window, kept up to date by binary insertion, gives the
// median directly and the MAD by a merge (stats.RejectOutliersSorted), and
// the Student-t critical value comes from stats' table (see
// BenchmarkMeanSamplesConvergence).
type meanSamples struct {
	samples []float64
	seen    int

	// sorted holds samples[:len(sorted)] in ascending order; filter
	// inserts the samples added since. nonFinite records a NaN or ±Inf
	// sample, which the sorted path does not handle: the filter then
	// falls back to stats.RejectOutliers.
	sorted    []float64
	nonFinite bool
	keptBuf   []float64 // backing store for fKept, reused across filter runs

	fN         int // sample count the cache below was computed from
	fKept      []float64
	fRejected  int
	fAbandoned bool
	fMean      float64
	fVar       float64
	fCIHalf    float64
}

func (s *meanSamples) add(x float64) { s.samples = append(s.samples, x) }

// resetSamples empties the window for a new version, keeping the buffers.
func (s *meanSamples) resetSamples() {
	*s = meanSamples{samples: s.samples[:0], sorted: s.sorted[:0], keptBuf: s.keptBuf[:0]}
}

// filter brings the cached outlier-rejected view of the window up to date.
// The kept samples stay in arrival order, so Mean and Variance sum in the
// same order as over stats.RejectOutliers' result and give the same bits.
func (s *meanSamples) filter(cfg *Config) {
	if s.fN == len(s.samples) && s.fN > 0 {
		return
	}
	for _, x := range s.samples[len(s.sorted):] {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			s.nonFinite = true
		}
		s.sorted = slices.Insert(s.sorted, sort.SearchFloat64s(s.sorted, x), x)
	}
	if s.nonFinite {
		s.fKept, s.fRejected, s.fAbandoned = stats.RejectOutliers(s.samples, cfg.OutlierK)
	} else {
		s.fKept, s.fRejected, s.fAbandoned = stats.RejectOutliersSorted(s.samples, s.sorted, cfg.OutlierK, s.keptBuf)
		s.keptBuf = s.fKept
	}
	s.fMean = stats.Mean(s.fKept)
	s.fVar = stats.Variance(s.fKept)
	s.fCIHalf = stats.MeanCIHalf(s.fVar, len(s.fKept), cfg.confidence())
	s.fN = len(s.samples)
}

func (s *meanSamples) evalVar(cfg *Config, m Method) Rating {
	s.filter(cfg)
	return Rating{
		Method:    m,
		EVAL:      s.fMean,
		VAR:       s.fVar,
		Samples:   len(s.fKept),
		Outliers:  s.fRejected,
		CIHalf:    s.fCIHalf,
		Abandoned: s.fAbandoned,
	}
}

func (s *meanSamples) meanConverged(cfg *Config) bool {
	if len(s.samples) < cfg.Window {
		return false
	}
	s.filter(cfg)
	n := len(s.fKept)
	if s.fMean == 0 || n < 2 {
		return false
	}
	if cfg.Convergence == ConvergeStdErr {
		stderr := math.Sqrt(s.fVar/float64(n)) / math.Abs(s.fMean)
		return stderr < cfg.VarThreshold
	}
	return s.fCIHalf/math.Abs(s.fMean) < cfg.ciRelThreshold()
}

// --- AVG --------------------------------------------------------------------

// avgRater naively averages invocation times regardless of context (§5.2's
// AVG baseline). It "does not generally produce consistent ratings ...
// because it ignores the context of each invocation".
type avgRater struct {
	meanSamples
	cfg *Config
}

func (r *avgRater) method() Method { return MethodAVG }

func (r *avgRater) observe(ic *invocation) (int64, error) {
	_, st, err := ic.runner.Run(ic.exp, ic.args)
	if err != nil {
		return 0, err
	}
	r.seen++
	r.add(ic.clock.Measure(st.Cycles))
	return st.Cycles, nil
}

func (r *avgRater) rating() Rating { return r.evalVar(r.cfg, MethodAVG) }

// converged: AVG "simply takes the timing average of a number of
// invocations, regardless of the TS's context" (§5.2) — a fixed window with
// no consistency check, which is exactly why it can pick losers.
func (r *avgRater) converged(cfg *Config) bool { return len(r.samples) >= cfg.Window }
func (r *avgRater) used() int                  { return r.seen }
func (r *avgRater) reset()                     { r.resetSamples() }

// --- CBR --------------------------------------------------------------------

// cbrRater rates a version using only invocations whose context matches the
// target context (the dominant one in offline tuning, §2.2). Invocations
// with other contexts still execute (and cost time) but contribute no
// samples — the source of CBR's inefficiency when contexts are many
// (MGRID_CBR in Figure 7).
type cbrRater struct {
	meanSamples
	target string
	cfg    *Config
}

func (r *cbrRater) method() Method { return MethodCBR }

func (r *cbrRater) observe(ic *invocation) (int64, error) {
	_, st, err := ic.runner.Run(ic.exp, ic.args)
	if err != nil {
		return 0, err
	}
	r.seen++
	if ic.key == r.target {
		r.add(ic.clock.Measure(st.Cycles))
	}
	return st.Cycles, nil
}

func (r *cbrRater) rating() Rating             { return r.evalVar(r.cfg, MethodCBR) }
func (r *cbrRater) converged(cfg *Config) bool { return r.meanConverged(cfg) }
func (r *cbrRater) used() int                  { return r.seen }
func (r *cbrRater) reset()                     { r.resetSamples() }

// --- MBR --------------------------------------------------------------------

// mbrRater gathers the TS-invocation-time vector Y and component-count
// matrix C and solves Y = T·C by linear regression (§2.3). EVAL is always
// the estimate T_avg = Σ T_i·C_avg_i (Eq. 4): the profile keeps no
// per-component times, so there is no dominant-component shortcut (EVAL =
// T_i of a component carrying ≥ 90% of the time).
type mbrRater struct {
	model *analysis.ComponentModel
	cAvg  []float64
	cfg   *Config

	rows [][]float64
	// times holds the invocation times; the constant-only path rates them
	// as a window, reusing its filter cache across checks.
	times meanSamples
	seen  int
}

func (r *mbrRater) method() Method { return MethodMBR }

func (r *mbrRater) observe(ic *invocation) (int64, error) {
	_, st, err := ic.runner.Run(ic.exp, ic.args)
	if err != nil {
		return 0, err
	}
	r.seen++
	r.rows = append(r.rows, r.model.CountsFor(st.Counters))
	r.times.add(ic.clock.Measure(st.Cycles))
	return st.Cycles, nil
}

func (r *mbrRater) solve() (*regress.Result, bool) {
	if len(r.rows) < len(r.model.Components)+1 {
		return nil, false
	}
	res, err := regress.Solve(r.rows, r.times.samples)
	if err != nil {
		return nil, false
	}
	return res, true
}

// tAvg is Eq. 4's estimate T_avg = Σ T_i·C_avg_i of a regression's
// component times coef.
func tAvg(coef, cAvg []float64) float64 {
	eval := 0.0
	for i, c := range coef {
		if i < len(cAvg) {
			eval += c * cAvg[i]
		}
	}
	return eval
}

// constantOnly reports whether the model degenerates to the constant
// component (all counters constant in the profile run — e.g. EQUAKE's fixed
// sparse structure). MBR then reduces to averaging invocation times, which
// is exactly the paper's observation that MBR and AVG "are equivalent to
// CBR" when there is a single context (§5.2).
func (r *mbrRater) constantOnly() bool {
	return len(r.model.Components) == 1 && r.model.Components[0].Constant
}

func (r *mbrRater) rating() Rating {
	if r.constantOnly() {
		return r.times.evalVar(r.cfg, MethodMBR)
	}
	res, ok := r.solve()
	if !ok {
		return Rating{Method: MethodMBR, EVAL: math.Inf(1), VAR: math.Inf(1), Samples: len(r.times.samples)}
	}
	return Rating{Method: MethodMBR, EVAL: tAvg(res.Coef, r.cAvg), VAR: res.VarRatio(), Samples: len(r.times.samples)}
}

func (r *mbrRater) minRows(cfg *Config) int {
	need := 3 * (len(r.model.Components) + 1)
	if cfg.Window > need {
		need = cfg.Window
	}
	return need
}

func (r *mbrRater) converged(cfg *Config) bool {
	if len(r.rows) < r.minRows(cfg) {
		return false
	}
	if r.constantOnly() {
		return r.times.meanConverged(cfg)
	}
	res, ok := r.solve()
	if !ok {
		return false
	}
	return res.VarRatio() < cfg.MBRVarThreshold
}

func (r *mbrRater) used() int { return r.seen }
func (r *mbrRater) reset() {
	r.rows, r.seen = nil, 0
	r.times.resetSamples()
}

// --- RBR --------------------------------------------------------------------

// rbrRater forces re-execution under the same context (§2.4). The improved
// method (Figure 4) swaps the two versions at each invocation, saves and
// restores only Modified_Input(TS), and runs a preconditioning execution so
// cache state does not favour whichever version runs second.
type rbrRater struct {
	meanSamples
	// modifiedInput is Input(TS) ∩ Def(TS) at array granularity (Eq. 6).
	modifiedInput []string
	// saveElems is the total element count of modifiedInput.
	saveElems int64
	// improved selects the Figure-4 method; the basic Figure-3 method
	// (no precondition, no swapping, full input save) is kept for the
	// ablation experiments.
	improved bool
	// inspector undoes each run from its own write log instead of a
	// snapshot of modifiedInput (§2.4.2).
	inspector bool
	cfg       *Config
	flip      bool
}

func (r *rbrRater) method() Method { return MethodRBR }

func (r *rbrRater) observe(ic *invocation) (int64, error) {
	// Basic method (Figure 3): always base first, no preconditioning —
	// the first execution warms the cache for the second, which biases
	// the ratio toward the experimental version.
	v1, v2 := ic.best, ic.exp
	if r.improved && r.flip {
		v1, v2 = v2, v1
	}
	r.flip = !r.flip

	var cycles int64
	var snap map[string][]float64
	if !r.inspector {
		snap = ic.mem.Snapshot(r.modifiedInput)
		cycles += r.saveElems * r.cfg.SaveRestoreCyclesPerElem
	}
	// run executes v once and, when undo is set, rolls its writes back.
	// A run that fails is not charged.
	run := func(v *sim.Version, undo bool) (int64, error) {
		ic.runner.WriteLog = ic.runner.WriteLog[:0]
		ic.runner.RecordWrites = r.inspector
		_, st, err := ic.runner.Run(v, ic.args)
		ic.runner.RecordWrites = false
		if err != nil {
			return 0, err
		}
		cycles += st.Cycles
		switch {
		case r.inspector:
			// Inspector instructions cost ~1 cycle per recorded write; the
			// undo costs two save/restore units per write (address + value).
			writes := int64(len(ic.runner.WriteLog))
			cycles += writes
			if undo {
				ic.mem.UndoWrites(ic.runner.WriteLog)
				cycles += 2 * writes * r.cfg.SaveRestoreCyclesPerElem
			}
		case undo:
			ic.mem.Restore(snap)
			cycles += r.saveElems * r.cfg.SaveRestoreCyclesPerElem
		}
		return st.Cycles, nil
	}

	if r.improved {
		// Precondition run, untimed: bring the data into the cache so the
		// first timed execution is not systematically colder than the
		// second.
		if _, err := run(v1, true); err != nil {
			return cycles, err
		}
	}
	c1, err := run(v1, true)
	if err != nil {
		return cycles, err
	}
	t1 := ic.clock.Measure(c1)
	// The second run's writes stand: the pair is one logical execution.
	c2, err := run(v2, false)
	if err != nil {
		return cycles, err
	}
	t2 := ic.clock.Measure(c2)

	// R_{exp/best} = T_best / T_exp (Eq. 5); undo the swap.
	tBest, tExp := t1, t2
	if v1 == ic.exp {
		tBest, tExp = t2, t1
	}
	if tExp > 0 {
		r.add(tBest / tExp)
	}
	r.seen++
	return cycles, nil
}

func (r *rbrRater) rating() Rating             { return r.evalVar(r.cfg, MethodRBR) }
func (r *rbrRater) converged(cfg *Config) bool { return r.meanConverged(cfg) }
func (r *rbrRater) used() int                  { return r.seen }
func (r *rbrRater) reset() {
	r.resetSamples()
	r.flip = false
}

// newRater builds method m's rater over profile p. mem is the memory the
// rater's invocations run in; the basic RBR method sizes its save set
// from it.
func newRater(m Method, p *profiling.Profile, cfg *Config, mem *sim.Memory) rater {
	switch m {
	case MethodAVG:
		return &avgRater{cfg: cfg}
	case MethodCBR:
		return &cbrRater{cfg: cfg, target: p.DominantContext}
	case MethodMBR:
		return &mbrRater{model: p.Model, cAvg: p.CAvg, cfg: cfg}
	case MethodRBR:
		r := &rbrRater{
			cfg:           cfg,
			modifiedInput: p.Effects.ModifiedInput(),
			saveElems:     int64(p.ModifiedInputElems),
			improved:      !cfg.BasicRBR,
			inspector:     cfg.RBRInspector && !cfg.BasicRBR,
		}
		if cfg.BasicRBR {
			// The basic method saves the whole Input(TS), not just the
			// modified part (Figure 3 step 1 vs Eq. 6).
			r.modifiedInput = nil
			r.saveElems = 0
			for arr := range p.Effects.Reads {
				r.modifiedInput = append(r.modifiedInput, arr)
				if a := mem.Get(arr); a != nil {
					r.saveElems += int64(len(a.Data))
				}
			}
			sort.Strings(r.modifiedInput)
		}
		return r
	}
	panic("core: newRater called for " + m.String())
}
