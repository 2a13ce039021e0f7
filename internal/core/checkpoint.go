package core

import (
	"encoding/json"
	"fmt"
	"sort"

	"peak/internal/opt"
	"peak/internal/store"
	"peak/internal/trace"
)

// engineState is the checkpoint snapshot the engine appends to its journal
// after each completed Iterative Elimination round. It captures everything
// a fresh process needs to continue the search and finish with a
// TuneResult byte-identical to an uninterrupted run: the search position
// (Current/Candidates), which flag sets have been resolved (so the restore
// can rebuild the in-memory version memo without re-accounting), and every
// accumulated counter. Flag sets serialize as their canonical uint64
// bitset; flags as their int values.
type engineState struct {
	Current    uint64   `json:"current"`
	Candidates []int    `json:"candidates"`
	MI         int      `json:"mi"`
	Switched   int      `json:"switched"`
	SharedInv  int64    `json:"sharedInv"`
	Lookups    int64    `json:"lookups"`
	Resolved   []uint64 `json:"resolved"`

	faultLedger

	// TuneResult counters accumulated so far.
	TuningCycles   int64 `json:"tuningCycles"`
	ProgramRuns    int   `json:"programRuns"`
	Invocations    int64 `json:"invocations"`
	VersionsRated  int   `json:"versionsRated"`
	Rounds         int   `json:"rounds"`
	Removed        []int `json:"removed"`
	Escalations    int   `json:"escalations"`
	EscalatedFlags []int `json:"escalatedFlags"`
	DedupSkips     int   `json:"dedupSkips"`
	Quarantined    []int `json:"quarantined"`
	MeasureRetries int   `json:"measureRetries"`
	JobRetries     int   `json:"jobRetries"`
}

func intsOf(flags []opt.Flag) []int {
	if flags == nil {
		return nil
	}
	out := make([]int, len(flags))
	for i, f := range flags {
		out[i] = int(f)
	}
	return out
}

// checkpoint appends the post-round engine state to the journal. It runs
// on the reduction goroutine between rounds, when no rating jobs are in
// flight, so reading the result ledger needs no locking.
func (e *engine) checkpoint(round int, current opt.FlagSet, candidates []opt.Flag, stopped bool) error {
	if e.journal == nil {
		return nil
	}
	vs := e.versions
	resolved := make([]uint64, 0, len(vs.memo))
	for fs := range vs.memo {
		resolved = append(resolved, uint64(fs))
	}
	sort.Slice(resolved, func(i, j int) bool { return resolved[i] < resolved[j] })

	r := e.res
	st := engineState{
		Current:    uint64(current),
		Candidates: intsOf(candidates),
		MI:         e.mi,
		Switched:   e.switched,
		SharedInv:  e.sharedInv,
		Lookups:    vs.lookups,
		Resolved:   resolved,

		faultLedger: vs.ledger,

		TuningCycles:   r.TuningCycles,
		ProgramRuns:    r.ProgramRuns,
		Invocations:    r.Invocations,
		VersionsRated:  r.VersionsRated,
		Rounds:         r.Rounds,
		Removed:        intsOf(r.Removed),
		Escalations:    r.Escalations,
		EscalatedFlags: intsOf(r.EscalatedFlags),
		DedupSkips:     r.DedupSkips,
		Quarantined:    intsOf(r.Quarantined),
		MeasureRetries: r.MeasureRetries,
		JobRetries:     r.JobRetries,
	}
	b, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("tune %s: marshal checkpoint: %w", e.t.Bench.Name, err)
	}
	if err := e.journal.Append(store.Record{
		Kind: "tune", ID: e.ckptID, Round: round, Stopped: stopped, State: b,
	}); err != nil {
		return err
	}
	if e.tb != nil {
		ev := trace.Event{Kind: trace.KindCheckpoint, Round: round + 1,
			Count: int64(len(b)), Cycles: e.res.TuningCycles}
		if stopped {
			ev.Outcome = "stopped"
		}
		e.emit(ev)
	}
	return nil
}

// restore rebuilds the engine from a checkpoint snapshot. It re-resolves
// every flag set the interrupted process had compiled, then overwrites
// every accumulator with the snapshot's values: the snapshot's lookup and
// fault-ledger counters replace whatever the re-resolve accrued.
// Compilation, corruption and verification are pure functions of
// identities, so the rebuilt memo is exactly the interrupted process's.
func (e *engine) restore(state json.RawMessage) (*engineState, error) {
	var st engineState
	if err := json.Unmarshal(state, &st); err != nil {
		return nil, fmt.Errorf("tune %s: corrupt checkpoint %s: %w", e.t.Bench.Name, e.ckptID, err)
	}
	for _, fs := range st.Resolved {
		if _, _, err := e.versions.resolve(opt.FlagSet(fs)); err != nil {
			return nil, fmt.Errorf("tune %s: resume recompile: %w", e.t.Bench.Name, err)
		}
	}

	e.mi = st.MI
	e.switched = st.Switched
	e.sharedInv = st.SharedInv
	e.versions.lookups = st.Lookups
	e.versions.ledger = st.faultLedger

	r := e.res
	r.TuningCycles = st.TuningCycles
	r.ProgramRuns = st.ProgramRuns
	r.Invocations = st.Invocations
	r.VersionsRated = st.VersionsRated
	r.Rounds = st.Rounds
	r.Removed = flagsOf(st.Removed)
	r.Escalations = st.Escalations
	r.EscalatedFlags = flagsOf(st.EscalatedFlags)
	r.DedupSkips = st.DedupSkips
	r.Quarantined = flagsOf(st.Quarantined)
	r.MeasureRetries = st.MeasureRetries
	r.JobRetries = st.JobRetries
	return &st, nil
}
