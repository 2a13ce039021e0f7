package core

import (
	"fmt"
	"math"

	"peak/internal/bench"
	"peak/internal/machine"
	"peak/internal/opt"
	"peak/internal/store"
	"peak/internal/vcache"
)

// Rating memoization: with a persistent store attached (Tuner.Store), every
// finished rating job records its outcome under a key that names the job's
// complete identity, and a later process whose store holds that key
// short-circuits the simulation entirely, restoring the outcome
// byte-for-byte. Correctness rests on the engine's determinism contract: a
// rating job is a pure function of (code fingerprints, machine, dataset,
// root seed, job key, rating config incl. the resolved noise model), so the
// key below captures exactly that function's inputs and the memoized value
// is exactly what the simulation would have produced. Anything outside the
// contract — fault injection, whose draws consume per-process stream state
// — must never be memoized; the engine refuses to attach a store when
// faults are enabled.

// MemoKindJob holds finished serve-job artifacts (internal/serve), the
// store's one variable-length memo kind.
const MemoKindJob = "job"

// MemoDigest renders every Config field that can influence a rating
// outcome on machine m — including the resolved measurement-noise model —
// as a compact stable string for memo keys. Floats are rendered as IEEE
// bit patterns so the digest never loses precision to formatting. Faults
// are deliberately excluded: faulted ratings are never memoized. So is
// NoCompileCache, which changes how versions are compiled but never what
// a rating returns.
func (c *Config) MemoDigest(m *machine.Machine) string {
	nm := c.NoiseModel(m)
	fb := func(v float64) string { return fmt.Sprintf("%x", math.Float64bits(v)) }
	return fmt.Sprintf("w=%d,vt=%s,mvt=%s,ok=%s,mi=%d,src=%d,brbr=%t,insp=%t,mc=%d,mds=%s,mcomp=%d,mpv=%s,it=%s,seed=%d,conv=%d,conf=%s,cirel=%s,esc=%d,noise=%s.%s.%s.%s.%d.%s.%d.%s",
		c.Window, fb(c.VarThreshold), fb(c.MBRVarThreshold), fb(c.OutlierK),
		c.MaxInvPerVersion, c.SaveRestoreCyclesPerElem, c.BasicRBR, c.RBRInspector,
		c.MaxContexts, fb(c.MinDominantShare), c.MaxComponents, fb(c.MBRMaxProfileVar),
		fb(c.ImprovementThreshold), c.Seed, c.Convergence, fb(c.confidence()),
		fb(c.CIRelThreshold), c.EscalationBudget,
		fb(nm.Jitter), fb(nm.SpikeProb), fb(nm.SpikeScale), fb(nm.DriftAmp), nm.DriftPeriod,
		fb(nm.BurstProb), nm.BurstLen, fb(nm.BurstScale))
}

// rateMemoKey names one rating job's complete identity. The job key
// already encodes round, method, flag and panic-retry generation; the
// fingerprints pin the exact code bodies; the root seed pins every derived
// stream; the digest pins the rating configuration and noise model.
func (e *engine) rateMemoKey(jobKey string, m Method, expFP, baseFP vcache.FP128, escalatable bool) string {
	return fmt.Sprintf("%s/%s/%s/%s/seed=%d/job=%s/m=%s/exp=%s/base=%s/esc=%t/cfg=%s",
		e.t.Bench.Name, e.t.Mach.Name, e.t.Dataset.Name, e.ts.Name,
		e.rootSeed, jobKey, m, expFP, baseFP, escalatable, e.cfg.MemoDigest(e.t.Mach))
}

// rateMemo is one memoized rating-job outcome: every field account() and
// emitRate() consume, in record order. Floats keep their IEEE bits, so
// CIHalf's +Inf below two samples round-trips exactly.
type rateMemo struct {
	Method                          int64
	EVAL, VAR                       float64
	Samples, Outliers               int64
	CIHalf                          float64
	Abandoned, Converged, Escalated bool
	Cycles, Invocations, Runs       int64
}

var rateKind store.Kind[rateMemo] = "rate"

func (r *jobResult) memo() rateMemo {
	return rateMemo{
		Method: int64(r.rating.Method), EVAL: r.rating.EVAL, VAR: r.rating.VAR,
		Samples: int64(r.rating.Samples), Outliers: int64(r.rating.Outliers),
		CIHalf: r.rating.CIHalf, Abandoned: r.rating.Abandoned,
		Converged: r.converged, Escalated: r.escalated,
		Cycles: r.ctx.cycles, Invocations: r.ctx.invocations, Runs: int64(r.ctx.runs),
	}
}

func (r *jobResult) restore(m rateMemo) {
	r.rating = Rating{Method: Method(m.Method), EVAL: m.EVAL, VAR: m.VAR,
		Samples: int(m.Samples), Outliers: int(m.Outliers),
		CIHalf: m.CIHalf, Abandoned: m.Abandoned}
	r.converged, r.escalated = m.Converged, m.Escalated
	r.ctx.cycles, r.ctx.invocations, r.ctx.runs = m.Cycles, m.Invocations, int(m.Runs)
}

// measureMemo is one memoized MeasurePerformanceStored outcome.
type measureMemo struct{ TS, Program int64 }

var measureKind store.Kind[measureMemo] = "measure"

// MeasurePerformanceStored runs the benchmark's tuning section over the
// dataset with the given flags and returns the deterministic total TS
// cycles plus the whole-program total (TS + non-TS). The tuned code is the
// plain section, "absent of any instrumentation code" (§4.2).
//
// Both layers are optional. A non-nil cache resolves the compilation
// through a shared compile cache, so drivers that measure the same
// (benchmark, flags, machine) combination more than once compile it once;
// nil compiles directly. A non-nil store memoizes the measured cycles under
// the resolved code's 128-bit fingerprint plus the (benchmark, dataset,
// machine) identity, so a warm process answers repeat measurements without
// running the simulator at all; on a key miss the simulation runs and its
// result is recorded for the next flush. The cycles are identical on every
// path: compilation is deterministic, cached versions are frozen, and
// measurement is noise-free.
func MeasurePerformanceStored(b *bench.Benchmark, ds *bench.Dataset, m *machine.Machine,
	flags opt.FlagSet, cache *vcache.Cache, st *store.Store) (tsCycles, programCycles int64, err error) {
	vi, _, err := newResolver("measure "+b.Name, b.Prog, b.TS, m, cache, nil).resolve(flags)
	if err != nil {
		return 0, 0, err
	}
	r, _, err := store.Memo(st, measureKind,
		fmt.Sprintf("%s/%s/%s/%s/fp=%s", b.Name, m.Name, ds.Name, flags, vi.fp128),
		func() (measureMemo, error) {
			ts, prog, err := runMeasurement(b, ds, m, flags, vi.v)
			return measureMemo{TS: ts, Program: prog}, err
		})
	return r.TS, r.Program, err
}
