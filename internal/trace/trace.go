// Package trace is the deterministic observability layer of the tuning
// engine: structured events describing what a tuning process did (rounds,
// ratings, cache resolutions, dedup skips, fault recovery, checkpoints)
// and a registry of named metrics aggregating the same story as counters.
//
// # Determinism contract
//
// Traces obey the repository-wide bit-identity rule (ARCHITECTURE.md §3):
// the serialized trace of a run is byte-identical at any worker count and
// with the compile cache on or off. Three properties make that hold:
//
//  1. Events are keyed by *simulated* cycles and job ordinals — never by
//     wall clock, goroutine identity or completion order. Every timestamp
//     in a trace is the tune's deterministic cycle ledger.
//  2. Events are emitted into per-unit Buffers by the code that owns the
//     unit (one tune, one experiment cell) and only ever on that unit's
//     reduction path, in index order. Parallel workers never write to a
//     Buffer directly.
//  3. Buffers are flushed to the Tracer in the work DAG's input order
//     (candidate order within a round, benchmark order within an
//     experiment), after the parallel phase completes — exactly the
//     index-ordered reduction rule the result ledgers already follow.
//
// # Overhead
//
// A nil *Buffer is the disabled tracer: every emit method returns
// immediately, so the tuning hot path pays one pointer test when tracing
// is off. The engine additionally guards event *construction* behind the
// nil check, so no field formatting happens either.
package trace

// Kind names an event type. The set of kinds, their fields and their
// ordering guarantees are documented in OBSERVABILITY.md ("Event schema
// reference"); adding a kind requires a schema entry there.
type Kind string

// Event kinds emitted by the tuning engine (internal/core).
const (
	// KindTuneStart opens one tuning process: Tune identifies it as
	// "bench/machine/method/dataset", Method is the starting rating
	// method, Detail the tuning dataset.
	KindTuneStart Kind = "tune_start"
	// KindTuneEnd closes a tuning process: Cycles is the final tuning-time
	// ledger, Invocations the TS invocations consumed, Detail the winning
	// flag set, and Counts the full TuneResult counter block.
	KindTuneEnd Kind = "tune_end"
	// KindRoundStart opens one Iterative Elimination round: Round (1-based),
	// Count the number of candidate flags entering the round.
	KindRoundStart Kind = "round_start"
	// KindRoundEnd closes a round: Outcome is "removed" or "stopped", Flag
	// the removed flag (when removed), Improvement its gated improvement,
	// Cycles the cumulative ledger after the round.
	KindRoundEnd Kind = "round_end"
	// KindCache is one compile-cache resolution in the engine's
	// deterministic precompile walk: Flag names the requested candidate
	// ("(base)" for the round's base set), Outcome is "hit" (flag set
	// already resolved by this tune), "miss" (fresh compilation) or
	// "shared" (fresh resolution whose generated code fingerprinted
	// identically to an earlier resolution, Leader naming it). Retries and
	// RetryCycles carry injected transient compile failures absorbed for
	// the flag set; VerifyCycles the golden-output verification time.
	KindCache Kind = "cache"
	// KindDedup is one candidate rating skipped by code-fingerprint dedup:
	// Flag inherits the rating of Leader ("(base)" when the candidate's
	// code is identical to the round base and its improvement is zero).
	KindDedup Kind = "dedup"
	// KindRate is one completed rating job, emitted in candidate order
	// during the round reduction: Flag ("(base)" for the base rating),
	// Ordinal the 1-based candidate index, Method the rating method,
	// Eval/CIHalf the rating (CIHalf -1 when undefined), Outcome
	// "converged" or "budget", JobCycles/Invocations the job's private
	// ledger, RetryCycles the hang-recovery share of JobCycles, Retries
	// the hung measurements killed, Count the injected job panics
	// survived, Cycles the cumulative tune ledger after accounting.
	KindRate Kind = "rate"
	// KindEscalate marks a candidate whose CBR/AVG rating stayed wide past
	// the escalation budget and was re-rated with RBR inside its job.
	KindEscalate Kind = "escalate"
	// KindMethodSwitch marks a round-level rating-method switch: Method is
	// the method the next attempt uses, Detail the abandoned one.
	KindMethodSwitch Kind = "method_switch"
	// KindQuarantine marks a candidate removed from the search because its
	// compilation failed golden-output verification (miscompile).
	KindQuarantine Kind = "quarantine"
	// KindCheckpoint is one checkpoint journal append: Round the completed
	// round, Count the serialized state size in bytes, Outcome "stopped"
	// on the final record of a tune.
	KindCheckpoint Kind = "checkpoint"
)

// Event kinds emitted by the experiment drivers.
const (
	// KindCell is one cell of a grid experiment (a Table-1 row, a noise
	// report cell): Detail identifies the cell, Method the rating method,
	// Mu/Sigma the cell's rating-error statistics.
	KindCell Kind = "cell"
	// KindTrials is one winner-picking trial block of the noise report:
	// Detail the regime, Counts the wrong-adopt/miss/invocation totals.
	KindTrials Kind = "trials"
)

// Event is one structured trace record. Field presence depends on Kind
// (see the constants above and OBSERVABILITY.md); absent numeric fields
// mean zero. Round and Ordinal are 1-based so that "absent" is
// distinguishable from a real value. Events marshal to one JSON object
// per line with a fixed field order, which is what makes trace files
// byte-comparable.
type Event struct {
	// Seq is the event's position in the trace file, assigned by the
	// Tracer at flush time. It is deterministic because flush order is.
	Seq int64 `json:"seq"`
	// Kind selects the event type and the meaning of the other fields.
	Kind Kind `json:"kind"`
	// Tune identifies the tuning process ("bench/machine/method/dataset").
	Tune string `json:"tune,omitempty"`
	// Round is the 1-based Iterative Elimination round.
	Round int `json:"round,omitempty"`
	// Ordinal is the 1-based candidate index of a rating job within its
	// round — the job's position in the work DAG, never its scheduling
	// order.
	Ordinal int `json:"ordinal,omitempty"`
	// Cycles is the tune's cumulative simulated-cycle ledger at emission.
	Cycles int64 `json:"cycles,omitempty"`
	// Flag names the candidate flag concerned ("(base)" for the base set).
	Flag string `json:"flag,omitempty"`
	// Leader names the earlier flag a dedup/shared event aliases to.
	Leader string `json:"leader,omitempty"`
	// Method is the rating method in effect.
	Method string `json:"method,omitempty"`
	// Outcome is the kind-specific verdict ("hit", "removed", ...).
	Outcome string `json:"outcome,omitempty"`
	// Eval is the rating value (time estimate, or relative ratio for RBR).
	Eval float64 `json:"eval,omitempty"`
	// CIHalf is the rating's confidence-interval half-width; -1 means
	// undefined (fewer than two samples — JSON has no +Inf).
	CIHalf float64 `json:"ci_half,omitempty"`
	// Improvement is the gated relative improvement of a removal.
	Improvement float64 `json:"improvement,omitempty"`
	// JobCycles is one rating job's private simulated-cycle total.
	JobCycles int64 `json:"job_cycles,omitempty"`
	// RetryCycles is the fault-recovery share of the event's cycles
	// (hang timeouts + backoff for rate events, compile backoff for cache
	// events).
	RetryCycles int64 `json:"retry_cycles,omitempty"`
	// VerifyCycles is the golden-output verification time of a resolution.
	VerifyCycles int64 `json:"verify_cycles,omitempty"`
	// Invocations counts TS invocations consumed by the event's unit.
	Invocations int64 `json:"invocations,omitempty"`
	// Retries counts fault retries absorbed (compile or measurement).
	Retries int `json:"retries,omitempty"`
	// Count is a kind-specific count (candidates entering a round,
	// checkpoint bytes, job panics survived).
	Count int64 `json:"count,omitempty"`
	// Mu and Sigma are a cell's rating-error statistics.
	Mu float64 `json:"mu,omitempty"`
	// Sigma is the standard deviation paired with Mu.
	Sigma float64 `json:"sigma,omitempty"`
	// Detail is kind-specific free text (dataset, regime, winner flags).
	Detail string `json:"detail,omitempty"`
	// Tier is the serving tier of a cache or rate event when a persistent
	// store is attached: "memory" (resolved by this process), "disk"
	// (preloaded from the store's snapshot) or "memo" (rating restored
	// from the store's memo table, no simulation run). Empty — and absent
	// from the JSON — whenever no store is attached, so trace bytes are
	// unchanged with the store disabled.
	Tier string `json:"tier,omitempty"`
	// Counts is a kind-specific named-counter block. encoding/json sorts
	// map keys, so Counts marshals deterministically.
	Counts map[string]int64 `json:"counts,omitempty"`
}

// Buffer is an ordered, single-goroutine event buffer: the unit of
// deterministic trace assembly. Code that owns a unit of work (one tune,
// one experiment cell) emits into its own Buffer on its reduction path
// and the driver flushes buffers in input order. A nil *Buffer is the
// disabled tracer — every method is a nil-safe no-op — so call sites need
// no feature flag beyond carrying a nil.
type Buffer struct {
	events []Event
}

// NewBuffer returns an empty event buffer.
func NewBuffer() *Buffer { return &Buffer{} }

// Enabled reports whether events emitted into b are recorded. It is the
// cheap guard for call sites that would otherwise pay to construct an
// Event nobody keeps.
func (b *Buffer) Enabled() bool { return b != nil }

// Emit appends one event. No-op on a nil buffer.
func (b *Buffer) Emit(ev Event) {
	if b == nil {
		return
	}
	b.events = append(b.events, ev)
}

// Append moves every event of child into b, preserving order. It is how
// a driver folds per-unit buffers into the run's trace in deterministic
// input order. Nil-safe on both sides.
func (b *Buffer) Append(child *Buffer) {
	if b == nil || child == nil {
		return
	}
	b.events = append(b.events, child.events...)
}

// Len returns the number of buffered events (0 for nil).
func (b *Buffer) Len() int {
	if b == nil {
		return 0
	}
	return len(b.events)
}

// Events returns the buffered events in emission order (nil for nil).
// The slice is the buffer's backing store; callers must not mutate it.
func (b *Buffer) Events() []Event {
	if b == nil {
		return nil
	}
	return b.events
}
