package core

import (
	"peak/internal/sched"
	"peak/internal/store"
	"peak/internal/trace"
	"peak/internal/vcache"
)

// Env is the set of optional layers a tuning operation runs under. Every
// field is independent and a nil field turns its layer off; the zero Env
// is a serial, uncached, unjournaled, untraced run. The experiment drivers
// and the facade take one Env instead of one positional parameter per
// layer, and results are byte-identical for any combination (see
// ARCHITECTURE.md for the determinism contract).
type Env struct {
	// Pool shards independent work (nil means serial); see Tuner.Pool.
	Pool sched.Pool
	// Cache shares compiled versions across tunes and measurements; see
	// Tuner.Cache.
	Cache *vcache.Cache
	// Store memoizes ratings and measurements across processes; see
	// Tuner.Store.
	Store *store.Store
	// Journal checkpoints every Iterative Elimination round and resumes
	// from recorded state; see Tuner.Journal.
	Journal *store.Journal
	// Trace records the structured event stream; see Tuner.Trace.
	Trace *trace.Buffer
	// Metrics accumulates each finished tune's counters
	// (TuneResult.FillMetrics).
	Metrics *trace.Metrics
}

// Tune runs t under the environment: t's Pool, Cache, Store, Journal and
// Trace are taken from e (whatever t carried is replaced), and on success
// the result's counters are added to e.Metrics. The caller sets the tune's
// identity — benchmark, machine, dataset, config, profile, forced method.
func (e Env) Tune(t Tuner) (*TuneResult, error) {
	t.Pool, t.Cache, t.Store, t.Journal, t.Trace = e.Pool, e.Cache, e.Store, e.Journal, e.Trace
	res, err := t.Tune()
	if err == nil {
		res.FillMetrics(e.Metrics)
	}
	return res, err
}
