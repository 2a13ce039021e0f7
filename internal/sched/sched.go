// Package sched is the parallel tuning orchestrator: it shards the
// independent units of PEAK work — whole (tuning section × machine ×
// rating method) tuning jobs at the coarse grain, and Iterative
// Elimination's per-flag candidate evaluations at the fine grain — across
// a bounded set of workers while guaranteeing results identical to a
// serial run at any worker count.
//
// # Determinism contract
//
// The scheduler makes no decisions that influence results; it only
// decides *when* and *on which goroutine* a job runs. Determinism is the
// job author's obligation, discharged by two rules (ARCHITECTURE.md
// documents the system-wide picture):
//
//  1. Seed derivation: a job must never share a rand.Rand (or any other
//     mutable state) with another job. Every per-job random stream is
//     seeded with DeriveSeed(rootSeed, jobKey), where jobKey uniquely
//     names the job's position in the work DAG ("round=2/flag=gcse",
//     never an execution-order index). A job's output is then a pure
//     function of its inputs.
//
//  2. Reduction ordering: Map(n, fn) identifies jobs by index; callers
//     write results only into the slot for their index and combine them
//     after Map returns, in ascending index order. No reduction may
//     depend on completion order.
//
// Under these rules Serial and any parallel Pool produce bit-identical
// results, which TestPoolDeterminism and the cmd/ binaries'
// -workers 1 vs -workers N byte-comparison verify end to end.
package sched

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Pool runs batches of independent jobs.
//
// Map is safe for concurrent use and may be nested: a job running inside
// Map may itself call Map on the same Pool (the coarse-grained experiment
// jobs do exactly that around the fine-grained candidate ratings).
// Nested calls never deadlock: a Map caller always executes jobs on its
// own goroutine too, extra workers are only an acceleration.
type Pool interface {
	// Map runs fn(i) for every i in [0, n) and returns when all calls
	// have finished. fn must be safe for concurrent invocation from
	// multiple goroutines and must communicate results only through
	// index-addressed storage (rule 2 above).
	Map(n int, fn func(i int))
	// Workers reports the configured concurrency bound (≥ 1): the pool's
	// lane budget.
	Workers() int
	// Stats returns the pool's live instrumentation counters (never nil).
	Stats() *Stats
	// Hold claims one lane for a long-lived goroutine (a serve job slot)
	// until the returned release function is called (exactly once). A
	// holder's Maps run helpers only on lanes no holder occupies: at the
	// Map's start, and later as lanes free while the Map still has
	// unclaimed items — the release itself offers the lane to the open
	// Maps. Helpers running on a lane a holder reclaims give it back at
	// their next item boundary. Holding never blocks and never changes
	// results; on a Serial pool it is a no-op.
	Hold() (release func())
}

// New returns a Pool with the given worker bound — its budget of lanes.
// workers <= 0 selects runtime.GOMAXPROCS(0); workers == 1 returns a
// Serial pool. The bound is global across nested Map calls: at most
// `workers` jobs execute simultaneously no matter how Maps stack (see
// Hold for the one transient exception).
func New(workers int) Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		return NewSerial()
	}
	return &parallel{workers: workers}
}

// Serial executes jobs on the calling goroutine in ascending index
// order — the fallback implementation used when no parallelism is wanted
// and the reference a parallel pool must match bit for bit.
type Serial struct {
	stats Stats
}

// NewSerial returns a serial pool.
func NewSerial() *Serial { return &Serial{} }

// Map runs fn(0), fn(1), …, fn(n-1) in order on the calling goroutine.
func (s *Serial) Map(n int, fn func(int)) {
	s.stats.enqueue(int64(n))
	for i := 0; i < n; i++ {
		s.stats.run(fn, i)
	}
}

// Workers reports 1.
func (s *Serial) Workers() int { return 1 }

// Hold is a no-op: a serial pool never starts helpers.
func (s *Serial) Hold() func() { return func() {} }

// Stats returns the live counters.
func (s *Serial) Stats() *Stats { return &s.stats }

// parallel is the sharded pool: each Map hands out indices through an
// atomic counter to the calling goroutine plus helper goroutines on free
// lanes. Helpers join a Map when it starts, as far as lanes are free at
// that moment, and later whenever a lane frees while the Map's caller is
// still taking items: a holder's release or a helper that ran out of items
// offers its lane to the newest open Map that has unclaimed items, so
// nested Maps finish their inner work before outer items start. Helpers
// keep no long-lived worker state, which is what makes nesting safe: a
// blocked parent Map cannot starve its children because the child's
// caller always works.
//
// The lane budget is shared by holders (Hold) and helpers. A Map caller
// always works on a lane of its own: a holder's, a helper's, or — for a
// caller that holds none, such as a cmd's top-level Map — an implicit
// one, which is why helpers may take lanes − max(held, 1) lanes: with no
// holders, workers − 1 helpers join the caller.
type parallel struct {
	workers int
	// lent packs the lanes held by holders (high 32 bits) and the lanes
	// lent to running helpers (low 32 bits) into one word, so admission
	// and yielding each decide on a consistent pair with one CAS.
	lent  atomic.Int64
	stats Stats

	// mu guards open, the Maps whose callers are still taking items, in
	// the order they started. Handing a freed lane to an open Map, or
	// returning it to the budget when none wants it, happens under mu, so
	// a Map that registers concurrently either sees the lane free or is
	// offered it.
	mu   sync.Mutex
	open []*batch
}

// batch is one Map call's shared state.
type batch struct {
	n    int
	fn   func(int)
	next atomic.Int64
	wg   sync.WaitGroup // helpers working on the batch
}

// unclaimed reports how many of the batch's items no goroutine has taken.
func (b *batch) unclaimed() int { return max(b.n-int(b.next.Load()), 0) }

const heldUnit = 1 << 32

// over reports by how many lanes the holders and helpers in state exceed
// the budget (negative: lanes still free for helpers).
func (p *parallel) over(state int64) int {
	held, helpers := int(state>>32), int(state&(heldUnit-1))
	return helpers + max(held, 1) - p.workers
}

// lend claims a free lane for a new helper.
func (p *parallel) lend() bool {
	for {
		st := p.lent.Load()
		if p.over(st) >= 0 {
			return false
		}
		if p.lent.CompareAndSwap(st, st+1) {
			return true
		}
	}
}

// yield hands a helper's lane back if holders have reclaimed it, i.e. if
// the budget is oversubscribed; the helper then stops taking items.
func (p *parallel) yield() bool {
	for {
		st := p.lent.Load()
		if p.over(st) <= 0 {
			return false
		}
		if p.lent.CompareAndSwap(st, st-1) {
			return true
		}
	}
}

func (p *parallel) Hold() func() {
	p.lent.Add(heldUnit)
	return func() {
		p.lent.Add(-heldUnit)
		p.offer()
	}
}

// offer starts helpers on free lanes for the open Maps, newest first, at
// most one per unclaimed item. Called when a holder releases its lane.
func (p *parallel) offer() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.open) - 1; i >= 0; i-- {
		b := p.open[i]
		for k := b.unclaimed(); k > 0 && p.lend(); k-- {
			p.join(b, true)
			go p.help(b)
		}
	}
}

// join counts a helper, on a lane already lent for it, into b; late marks
// a Map that was already running. Caller holds mu.
func (p *parallel) join(b *batch, late bool) {
	p.stats.Helpers.Add(1)
	if late {
		p.stats.LateHelpers.Add(1)
	}
	b.wg.Add(1)
}

// help runs items on a lent lane: first of b, then — each time the
// current Map runs out of items — of the newest open Map that still has
// some, until none does or a holder reclaims the lane. The lane moves on
// or goes back before the helper leaves b, so once a Map returns none of
// its helpers still holds a lane for it.
func (p *parallel) help(b *batch) {
	for b != nil {
		var next *batch
		if p.drain(b, true) {
			next = p.rejoin()
		}
		b.wg.Done()
		b = next
	}
}

// rejoin carries a helper's lane to the newest open Map with unclaimed
// items, or returns it to the budget when there is none.
func (p *parallel) rejoin() *batch {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.open) - 1; i >= 0; i-- {
		if b := p.open[i]; b.unclaimed() > 0 {
			p.join(b, true)
			return b
		}
	}
	p.lent.Add(-1)
	return nil
}

// drain takes b's items until none is left (true) or, for a helper, until
// a holder reclaims its lane (false; the lane is already handed back).
func (p *parallel) drain(b *batch, helper bool) bool {
	for {
		if helper && p.yield() {
			return false
		}
		i := int(b.next.Add(1)) - 1
		if i >= b.n {
			return true
		}
		p.stats.run(b.fn, i)
	}
}

func (p *parallel) Map(n int, fn func(int)) {
	p.stats.enqueue(int64(n))
	if n <= 1 {
		if n == 1 {
			p.stats.run(fn, 0)
		}
		return
	}
	b := &batch{n: n, fn: fn}
	p.mu.Lock()
	p.open = append(p.open, b)
	// At most n-1 helpers at the start, and only while lanes are free;
	// lanes that free later join through offer and rejoin.
	for h := 0; h < n-1 && p.lend(); h++ {
		p.join(b, false)
		go p.help(b)
	}
	p.mu.Unlock()
	p.drain(b, false)
	p.mu.Lock()
	i := slices.Index(p.open, b)
	// Delete zeroes the vacated tail slot, so the pool keeps no reference
	// to a finished Map's closure.
	p.open = slices.Delete(p.open, i, i+1)
	p.mu.Unlock()
	b.wg.Wait()
}

func (p *parallel) Workers() int  { return p.workers }
func (p *parallel) Stats() *Stats { return &p.stats }
