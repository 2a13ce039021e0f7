package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"peak/internal/analysis"
	"peak/internal/bench"
	"peak/internal/fault"
	"peak/internal/ir"
	"peak/internal/machine"
	"peak/internal/opt"
	"peak/internal/profiling"
	"peak/internal/sched"
	"peak/internal/sim"
	"peak/internal/vcache"
)

// tuningProgram builds the program a tune compiles: the benchmark with its
// tuning section instrumented, keeping only the counters the component
// model needs ("the unnecessary instrumentation code for the merged blocks
// is removed", §2.3); other methods strip all counters.
func tuningProgram(b *bench.Benchmark, p *profiling.Profile) (*ir.Program, *ir.Func) {
	keep := map[int]bool{}
	if p.Model != nil {
		keep = p.Model.KeepCounters
	}
	ts := analysis.StripCounters(analysis.Instrument(b.TS), keep)
	prog := b.Prog.Clone()
	prog.AddFunc(ts)
	return prog, ts
}

// versionInfo is a resolved compilation: the frozen version, its code
// fingerprint (vcache.Fingerprint128, the hash of its canonical
// encoding), and — with fault injection on — whether golden-output
// verification flagged it as miscompiled. The trailing fields record the
// resolution's one-time costs (injected compile retries, their backoff,
// verification time) for cache trace events; they are pure functions of
// the compile identity, so they are the same whichever call resolved the
// flag set first.
type versionInfo struct {
	v *sim.Version
	// fp is the 64-bit in-process fingerprint (dedup grouping, trace
	// leader maps); fp128 the full content fingerprint memo keys embed,
	// of which fp is the low half. fromDisk marks resolutions answered by
	// a persistent-store preload rather than a compilation this process.
	fp          uint64
	fp128       vcache.FP128
	fromDisk    bool
	quarantined bool

	retries      int
	retryCycles  int64
	verifyCycles int64
}

// faultLedger is a resolver's fault-recovery ledger. Every entry is keyed
// by distinct flag-set resolutions, so it is independent of scheduling,
// caching and resume. The JSON tags are the checkpoint's field names.
type faultLedger struct {
	CompileRetries int   `json:"compileRetries"`
	FaultCycles    int64 `json:"faultCycles"`  // compile-retry backoff time
	VerifyCycles   int64 `json:"verifyCycles"` // golden-output verification time
	VerifyInv      int64 `json:"verifyInv"`
}

// resolver turns flag sets into frozen versions of one tuning section: the
// one path by which the tuner, the adaptive tuner and measurements compile.
// It memoizes each flag set's resolution for the run, so exactly one
// Version exists per flag set however many jobs request it, and the memo
// is what the run's deterministic cache counters derive from. A shared
// cache, when given, publishes whichever run compiles a key first to all
// runs, and distinct keys compile in parallel (the cache compiles outside
// its own lock); with no cache (Config.NoCompileCache) each flag set is
// compiled, frozen and fingerprinted here directly.
//
// With a fault plan the resolver additionally:
//
//   - draws the flag set's injected transient compile failures — a pure
//     function of the compile identity, so retry counts are independent of
//     scheduling and caching — and absorbs them up to the retry bound,
//     charging deterministic backoff time;
//   - lets the plan miscompile the compilation (fault.Corrupt inside the
//     compile function, so a corrupted artifact is what lands in the cache
//     under the plan-salted program key). The base "-O3" is exempt: it is
//     the trusted production baseline golden outputs come from;
//   - verifies every non-base compilation against the golden reference,
//     built lazily from "-O3" through the memo itself, and marks failures
//     quarantined.
type resolver struct {
	name   string // error prefix, e.g. "tune ART"
	prog   *ir.Program
	ts     *ir.Func
	mach   *machine.Machine
	cache  *vcache.Cache // nil compiles directly
	faults *fault.Plan   // nil when fault injection is off
	// progKey is the HIR hash of prog, salted with the fault plan's
	// fingerprint: a flag set miscompiled under this plan must never
	// collide in a shared cache with the same flag set compiled cleanly (a
	// fault-free tune, a different plan, or the final deployment compile).
	progKey uint64
	// verifyDS and verifySeed fix the verification workload's inputs.
	verifyDS   *bench.Dataset
	verifySeed int64

	mu      sync.Mutex
	memo    map[opt.FlagSet]versionInfo
	lookups int64
	golden  *goldenRef
	ledger  faultLedger
}

// newResolver returns a resolver for ts in prog on m. A nil or all-zero
// fault plan turns injection off; with it on, the caller sets the
// verification workload (verifyDS, verifySeed).
func newResolver(name string, prog *ir.Program, ts *ir.Func, m *machine.Machine,
	cache *vcache.Cache, faults *fault.Plan) *resolver {
	r := &resolver{name: name, prog: prog, ts: ts, mach: m, cache: cache,
		progKey: vcache.ProgramKey(prog), memo: map[opt.FlagSet]versionInfo{}}
	if !faults.IsZero() {
		r.faults = faults
		r.progKey ^= faults.Fingerprint()
	}
	return r
}

// resolve returns fs's resolution and whether this call was the first to
// resolve it — the hit/miss bit of the trace's cache events.
func (r *resolver) resolve(fs opt.FlagSet) (versionInfo, bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.get(fs)
}

// get is resolve under r.mu.
func (r *resolver) get(fs opt.FlagSet) (versionInfo, bool, error) {
	r.lookups++
	if vi, ok := r.memo[fs]; ok {
		return vi, false, nil
	}
	var vi versionInfo
	if r.faults != nil {
		n := r.faults.CompileFailures(r.id(fs))
		if n > r.faults.CompileRetries() {
			return versionInfo{}, false, fmt.Errorf("%s: compile %s: injected compiler crash persisted: %w",
				r.name, fs, fault.ErrRetriesExhausted)
		}
		vi.retries = n
		for i := 0; i < n; i++ {
			vi.retryCycles += r.faults.Backoff(i)
		}
		r.ledger.CompileRetries += n
		r.ledger.FaultCycles += vi.retryCycles
	}
	if r.cache != nil {
		res, err := r.cache.Resolve(r.key(fs), r.build(fs))
		if err != nil {
			return versionInfo{}, false, fmt.Errorf("%s: compile %s: %w", r.name, fs, err)
		}
		vi.v, vi.fp128, vi.fromDisk = res.V, res.FP, res.FromDisk
	} else {
		v, err := r.build(fs)()
		if err != nil {
			return versionInfo{}, false, fmt.Errorf("%s: compile %s: %w", r.name, fs, err)
		}
		v.Freeze()
		vi.v, vi.fp128 = v, vcache.Fingerprint128(v)
	}
	vi.fp = vi.fp128.Lo
	if r.faults != nil && fs != opt.O3() {
		quarantined, cycles, inv, err := r.verify(vi.v)
		if err != nil {
			return versionInfo{}, false, err
		}
		vi.quarantined = quarantined
		vi.verifyCycles = cycles
		r.ledger.VerifyCycles += cycles
		r.ledger.VerifyInv += inv
		if quarantined && r.cache != nil {
			r.cache.MarkQuarantined(r.key(fs))
		}
	}
	r.memo[fs] = vi
	return vi, true, nil
}

// id names fs's compilation for the fault plan's per-compile draws.
func (r *resolver) id(fs opt.FlagSet) string {
	return fmt.Sprintf("%d/%s/%s/%s", r.progKey, r.ts.Name, fs, r.mach.Name)
}

// key is fs's key in the compile cache.
func (r *resolver) key(fs opt.FlagSet) vcache.Key {
	return vcache.Key{Prog: r.progKey, Fn: r.ts.Name, Flags: fs, Machine: r.mach.Name}
}

// build returns the function that compiles ts under fs, miscompiling it
// when the fault plan says so. It reads only the resolver's immutable
// setup, so prefetches may run it concurrently.
func (r *resolver) build(fs opt.FlagSet) func() (*sim.Version, error) {
	return func() (*sim.Version, error) {
		v, err := opt.Compile(r.prog, r.ts, fs, r.mach)
		if err == nil && r.faults != nil && fs != opt.O3() {
			if id := r.id(fs); r.faults.Miscompiles(id) {
				fault.Corrupt(v, sched.DeriveSeed(r.faults.Seed, "corrupt/"+id))
			}
		}
		return v, err
	}
}

// prefetch compiles sets into the cache, sharded across the pool, ahead of
// their serial resolution in order. That resolution then mostly publishes
// finished compiles, in order, so the cache, the trace and the dedup
// grouping are what resolving every set serially would produce. Sets
// already resolved are skipped, and the list stops before the first set
// whose injected compile failures exceed the retry bound: resolution fails
// there, so nothing after it may be compiled. The Map is issued whatever
// the pool and cache, so the pool's job counters do not depend on them;
// without a cache its items do nothing.
func (r *resolver) prefetch(pool sched.Pool, sets []opt.FlagSet) {
	r.mu.Lock()
	todo := make([]opt.FlagSet, 0, len(sets))
	for _, fs := range sets {
		if _, ok := r.memo[fs]; ok {
			continue
		}
		if r.faults != nil && r.faults.CompileFailures(r.id(fs)) > r.faults.CompileRetries() {
			break
		}
		todo = append(todo, fs)
	}
	r.mu.Unlock()
	pool.Map(len(todo), func(i int) {
		if r.cache != nil {
			r.cache.Prefetch(r.key(todo[i]), r.build(todo[i]))
		}
	})
}

// reference returns the verification reference, building it from the base
// "-O3" version on first use. The base resolves through the memo, so the
// build counts as a lookup. The build's simulated time and invocations are
// returned exactly once, with the first build. Caller holds r.mu.
func (r *resolver) reference() (g *goldenRef, cycles, inv int64, err error) {
	if r.golden != nil {
		return r.golden, 0, 0, nil
	}
	vi, _, err := r.get(opt.O3())
	if err != nil {
		return nil, 0, 0, err
	}
	rets, snap, cycles, maxInstrs, err := r.runVerifyWorkload(vi.v, 0)
	if err != nil {
		// The exempt base version must run cleanly; failure here is a
		// genuine engine bug, not a quarantinable fault.
		return nil, 0, 0, fmt.Errorf("%s: golden reference run failed: %w", r.name, err)
	}
	r.golden = &goldenRef{rets: rets, mem: snap, maxInstrs: maxInstrs}
	return r.golden, cycles, int64(len(rets)), nil
}

// verify checks v's outputs against the golden reference and reports
// whether it must be quarantined. The verdict is a pure function of the
// compiled code and the verification seed — independent of scheduling,
// caching, and resume — and errors (runtime faults, runaway step limits)
// count as failed verification, not as run errors. Caller holds r.mu.
func (r *resolver) verify(v *sim.Version) (quarantined bool, cycles, inv int64, err error) {
	g, cycles, inv, err := r.reference()
	if err != nil {
		return false, 0, 0, err
	}
	maxSteps := g.maxInstrs * verifyStepFactor
	if maxSteps < 1_000_000 {
		maxSteps = 1_000_000
	}
	rets, snap, vc, _, runErr := r.runVerifyWorkload(v, maxSteps)
	cycles += vc
	inv += int64(len(g.rets))
	return runErr != nil || !floatsClose(rets, g.rets) || !memClose(snap, g.mem), cycles, inv, nil
}

// runVerifyWorkload runs the shared verification workload for one version:
// fresh memory, data and runner streams derived from verifySeed only — so
// the golden run and every candidate run see identical inputs regardless
// of when (or in which process) they execute.
func (r *resolver) runVerifyWorkload(v *sim.Version, maxSteps int64) (rets []float64, snap map[string][]float64, cycles, maxInstrs int64, err error) {
	ds := r.verifyDS
	mem := sim.NewMemory(r.prog)
	rng := rand.New(rand.NewSource(sched.DeriveSeed(r.verifySeed, "verify/data")))
	runner := sim.NewRunner(r.mach, mem, sched.DeriveSeed(r.verifySeed, "verify/runner"))
	runner.MaxSteps = maxSteps
	if ds.Setup != nil {
		ds.Setup(mem, rng)
	}
	n := verifyInvocations
	if ds.NumInvocations < n {
		n = ds.NumInvocations
	}
	rets = make([]float64, 0, n)
	for i := 0; i < n; i++ {
		args := ds.Args(i, mem, rng)
		ret, st, rerr := runner.Run(v, args)
		if rerr != nil {
			return nil, nil, cycles, maxInstrs, rerr
		}
		rets = append(rets, ret)
		cycles += st.Cycles
		if st.Instrs > maxInstrs {
			maxInstrs = st.Instrs
		}
	}
	names := mem.Names()
	sort.Strings(names)
	return rets, mem.Snapshot(names), cycles, maxInstrs, nil
}
