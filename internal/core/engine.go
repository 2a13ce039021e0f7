package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"peak/internal/bench"
	"peak/internal/fault"
	"peak/internal/ir"
	"peak/internal/machine"
	"peak/internal/opt"
	"peak/internal/profiling"
	"peak/internal/sched"
	"peak/internal/sim"
	"peak/internal/stats"
	"peak/internal/store"
	"peak/internal/trace"
	"peak/internal/vcache"
)

// Tuner drives the PEAK offline tuning of one benchmark's tuning section on
// one machine (paper §4.2): it compiles experimental versions, rates them
// with the selected rating method while the application runs over the
// tuning dataset, and searches the flag space with Iterative Elimination.
type Tuner struct {
	Bench   *bench.Benchmark
	Mach    *machine.Machine
	Dataset *bench.Dataset
	Cfg     Config
	Profile *profiling.Profile

	// Force pins the rating method (used by the Figure-7 method-comparison
	// experiments); leave nil for the consultant's automatic choice with
	// runtime switching.
	Force *Method

	// Candidates restricts the Iterative Elimination search to a subset of
	// the tunable flags (nil searches all 38). The serve layer maps a
	// request's flag subset here. Callers should canonicalize the order
	// (ascending flag value): candidate order is part of the tune's
	// identity — it fixes reduction order and tie-breaks — so two requests
	// naming the same set in different orders would otherwise be distinct
	// tunes.
	Candidates []opt.Flag

	// Interrupt, when non-nil, is polled on the reduction goroutine before
	// every Iterative Elimination round; once it returns true the tune
	// stops with ErrInterrupted instead of starting the round. The last
	// completed round was already checkpointed (when a Journal is
	// attached), so an interrupted tune resumes byte-identically. The
	// serve layer decides a job's drain, deadline and watchdog stop here.
	Interrupt func() bool

	// Pool shards Iterative Elimination's independent candidate ratings
	// across workers. Nil (or a sched.Serial pool) rates them one after
	// another on the calling goroutine. The result is bit-identical at any
	// worker count: every rating job derives its own random streams from
	// sched.DeriveSeed(rootSeed, jobKey) and the round reduction runs in
	// candidate order (see ARCHITECTURE.md for the determinism contract).
	Pool sched.Pool

	// Cache is an optional shared compile cache: experiment drivers pass
	// one cache to many Tuners so a (program, function, flags, machine)
	// combination compiles once across tunes. Nil gives the tune a private
	// cache (flag sets still compile once per tune, and flag sets that
	// generate identical code share one frozen version). Sharing cannot
	// perturb results: compilation is deterministic, cached versions are
	// frozen before publication, and all per-execution state lives in
	// per-job runners. Cfg.NoCompileCache disables caching entirely.
	Cache *vcache.Cache

	// Store, when set, memoizes finished rating jobs in the persistent
	// warm-start store (internal/store): a job whose complete identity —
	// code fingerprints, machine, dataset, derived seeds, rating config
	// and noise model — matches a record loaded at store-open time
	// restores the recorded outcome instead of simulating, byte-identical
	// by the determinism contract. The store's read set is frozen at open,
	// so memo answers are independent of worker count and scheduling.
	// Ignored when fault injection is enabled: fault draws consume
	// per-process stream state that no key can capture, so faulted
	// ratings are never memoized.
	Store *store.Store

	// Journal, when set, turns on checkpointing: the engine appends its
	// state to the journal after every completed Iterative Elimination
	// round, keyed by CheckpointID, and — if the journal already holds a
	// record for that ID — resumes from it, producing a TuneResult
	// byte-identical to an uninterrupted run. CheckpointID defaults to
	// "bench/machine/method/dataset".
	Journal      *store.Journal
	CheckpointID string

	// Trace, when set, records the tuning process as structured events
	// (internal/trace): round boundaries, per-flag ratings, cache
	// resolutions, dedup skips, fault recovery, checkpoints. All events
	// are emitted on the round-reduction path in candidate order and keyed
	// by simulated cycles, so the buffer's contents are byte-identical at
	// any worker count and with the cache on or off. Nil disables tracing
	// at the cost of one pointer test per emission site.
	Trace *trace.Buffer
}

// TuneResult reports a finished tuning process.
type TuneResult struct {
	Best opt.FlagSet
	// MethodUsed is the rating method that produced the final decisions
	// (after any runtime switches); MethodSwitches counts switches.
	MethodUsed     Method
	MethodSwitches int
	// TuningCycles is the simulated time of the whole tuning process:
	// every executed TS invocation (including RBR's re-executions,
	// preconditioning and save/restore overheads) plus the non-TS part of
	// every program run consumed. Figure 7(c,d) normalizes this to WHL.
	TuningCycles int64
	// ProgramRuns is the number of application runs consumed.
	ProgramRuns int
	// Invocations is the number of TS invocations executed.
	Invocations int64
	// VersionsRated counts distinct flag combinations rated; Rounds the
	// Iterative Elimination rounds; Removed the flags switched off.
	VersionsRated int
	Rounds        int
	Removed       []opt.Flag
	// Escalations counts candidate ratings whose confidence interval
	// stayed wide past the escalation budget and were therefore re-rated
	// with RBR for the round; EscalatedFlags lists the flags concerned, in
	// rating order (re-rated rounds included — the time was spent).
	Escalations    int
	EscalatedFlags []opt.Flag

	// Compile-cache ledger. These count THIS tune's own behaviour — not
	// the shared cache's global totals, which depend on what other tunes
	// run concurrently — so they are scheduling-independent and safe for
	// the bit-identical determinism contract. CacheLookups is the number
	// of version requests the engine made; CacheMisses the distinct flag
	// sets compiled (or fetched from a shared cache) for it; CacheHits the
	// requests answered by the tune's own memo table.
	CacheLookups int64
	CacheHits    int64
	CacheMisses  int64
	// SharedCode counts distinct flag sets whose generated code
	// fingerprinted identically to another flag set of this tune (the code
	// dedup layer); DedupSkips counts candidate ratings skipped because
	// their code fingerprint matched the base or an already-rated
	// candidate of the same round (the skipped candidate inherits the
	// rated twin's rating).
	SharedCode int
	DedupSkips int

	// Fault & recovery ledger (all zero when fault injection is off).
	// Quarantined lists the flags whose one-flag-off candidate failed
	// golden-output verification (miscompile detected) and was therefore
	// removed from the search, in elimination order. CompileRetries counts
	// injected transient compile failures absorbed by retry;
	// MeasureRetries hung measurements killed and retried; JobRetries
	// panicked rating jobs re-run under derived keys. VerifyInvocations is
	// the number of TS invocations spent on golden-output verification
	// (their simulated time is part of TuningCycles). Like every other
	// field, these are scheduling-independent: fault decisions key on
	// identities, never execution order.
	Quarantined       []opt.Flag
	CompileRetries    int
	MeasureRetries    int
	JobRetries        int
	VerifyInvocations int64
}

// engine is the running state of one tuning process. Cross-job state is
// limited to the version resolver (behind its own lock) and the result ledger,
// which only the reduction goroutine touches; everything execution-related
// lives in per-job ratingCtx instances.
type engine struct {
	t       *Tuner
	cfg     *Config
	methods []Method
	mi      int // index into methods
	app     *Applicability
	pool    sched.Pool

	prog *ir.Program // program with the instrumented TS
	ts   *ir.Func    // instrumented tuning section

	// rootSeed is the root of every per-job seed derivation.
	rootSeed int64

	// versions resolves flag sets to frozen versions through the compile
	// cache (Tuner.Cache, or a private one; none when Cfg.NoCompileCache is
	// set). It owns this tune's memo — which keeps repeat lookups off the
	// shared cache's lock and is what the deterministic TuneResult cache
	// counters are derived from — and, with fault injection on, the
	// engine-level fault ledger, folded into res when tuning finishes
	// (workers must never touch res while jobs run).
	versions *resolver

	// store is the persistent memo store (Tuner.Store), nil when absent —
	// and always nil when fault injection is on (see the Tuner.Store doc).
	store *store.Store

	// faults is the injection plan (nil when off); journal/ckptID enable
	// checkpointing.
	faults  *fault.Plan
	journal *store.Journal
	ckptID  string

	// tb is the trace buffer (nil = tracing off); id the tune identity
	// stamped on every event ("bench/machine/method/dataset"); fpFirst
	// maps each code fingerprint to the label of the flag set that first
	// produced it, for "shared" cache events. fpFirst is touched only on
	// the reduction path, so it needs no lock.
	tb      *trace.Buffer
	id      string
	fpFirst map[uint64]string

	res      *TuneResult
	switched int
	// sharedInv counts the TS invocations the non-WHL rating jobs consumed.
	// Those ratings are interleaved into shared application runs (the
	// paper's "while the application runs" model), so the runs — and their
	// non-TS time — are accounted once, by packing, when tuning finishes.
	sharedInv int64
}

// Tune runs the complete offline tuning process.
func (t *Tuner) Tune() (*TuneResult, error) {
	e, err := t.newEngine()
	if err != nil {
		return nil, err
	}
	if e.tb != nil {
		e.emit(trace.Event{Kind: trace.KindTuneStart,
			Method: e.methods[e.mi].String(), Detail: t.Dataset.Name})
	}
	if err := e.iterativeElimination(); err != nil {
		return nil, err
	}
	// Pack the shared-run ratings into whole application runs: rating k
	// invocations out of runs of N consumes ⌈k/N⌉ runs, each charging its
	// non-TS time once. WHL's dedicated runs were accounted per job.
	if e.sharedInv > 0 {
		n := int64(t.Dataset.NumInvocations)
		runs := (e.sharedInv + n - 1) / n
		e.res.ProgramRuns += int(runs)
		e.res.TuningCycles += runs * t.Bench.NonTSCycles
	}
	e.res.MethodUsed = e.methods[e.mi]
	e.res.MethodSwitches = e.switched
	// Cache counters, derived from the tune's own memo table so they are
	// independent of what other tunes share the cache: misses = distinct
	// flag sets, hits = repeat lookups, shared = flag sets whose code
	// fingerprinted identically to an earlier-seen flag set of this tune.
	vs := e.versions
	e.res.CacheLookups = vs.lookups
	e.res.CacheMisses = int64(len(vs.memo))
	e.res.CacheHits = vs.lookups - e.res.CacheMisses
	fps := make(map[uint64]bool, len(vs.memo))
	for _, vi := range vs.memo {
		if fps[vi.fp] {
			e.res.SharedCode++
		} else {
			fps[vi.fp] = true
		}
	}
	if e.faults != nil {
		// Recovery overheads join the tuning-time ledger: verification runs
		// and compile-retry backoff are simulated time the faulted tuning
		// process really spends. Hang timeouts were charged per job.
		e.res.TuningCycles += vs.ledger.FaultCycles + vs.ledger.VerifyCycles
		e.res.CompileRetries = vs.ledger.CompileRetries
		e.res.VerifyInvocations = vs.ledger.VerifyInv
	}
	if e.tb != nil {
		e.emitTuneEnd()
	}
	return e.res, nil
}

func (t *Tuner) newEngine() (*engine, error) {
	cfg := t.Cfg
	pool := t.Pool
	if pool == nil {
		pool = sched.NewSerial()
	}
	e := &engine{
		t:        t,
		cfg:      &cfg,
		pool:     pool,
		rootSeed: cfg.Seed ^ t.Bench.Seed(1),
		res:      &TuneResult{},
	}

	e.app = Consult(t.Profile, &cfg)
	if t.Force != nil {
		e.methods = []Method{*t.Force}
	} else {
		e.methods = append([]Method(nil), e.app.Methods...)
	}

	// The cache key hashes the instrumented program: tunes with identical
	// benchmarks and kept-counter sets share compilations, tunes whose
	// instrumentation differs cannot collide.
	e.prog, e.ts = tuningProgram(t.Bench, t.Profile)
	var cache *vcache.Cache
	if !cfg.NoCompileCache {
		cache = t.Cache
		if cache == nil {
			cache = vcache.New()
		}
	}
	e.versions = newResolver("tune "+t.Bench.Name, e.prog, e.ts, t.Mach, cache, cfg.Faults)
	e.versions.verifyDS, e.versions.verifySeed = t.Dataset, e.rootSeed
	e.faults = e.versions.faults
	if t.Store != nil && e.faults == nil {
		e.store = t.Store
	}
	method := "auto"
	if t.Force != nil {
		method = t.Force.String()
	}
	id := fmt.Sprintf("%s/%s/%s/%s", t.Bench.Name, t.Mach.Name, method, t.Dataset.Name)
	e.journal = t.Journal
	if e.journal != nil {
		e.ckptID = t.CheckpointID
		if e.ckptID == "" {
			e.ckptID = id
		}
	}
	if t.Trace != nil {
		e.tb = t.Trace
		e.id = id
		e.fpFirst = map[uint64]string{}
	}
	return e, nil
}

// roundSets lists a round's flag sets in precompile order: the base, then
// each candidate removal.
func roundSets(current opt.FlagSet, candidates []opt.Flag) []opt.FlagSet {
	sets := make([]opt.FlagSet, 0, len(candidates)+1)
	sets = append(sets, current)
	for _, f := range candidates {
		sets = append(sets, current.Without(f))
	}
	return sets
}

// ratingCtx is one rating job's private execution context: simulated
// memory, machine state, measurement clock and data RNG, all derived from
// the job key. A job's outcome is therefore a pure function of
// (benchmark, machine, profile, method, flag sets, root seed, job key) —
// independent of scheduling order and worker count. The simulation state
// is built by start, only for a job that simulates: a memo hit restores
// the ledger alone.
type ratingCtx struct {
	e      *engine
	jobKey string
	mem    *sim.Memory
	runner *sim.Runner
	clock  *sim.Clock
	rng    *rand.Rand

	// hangs is the job's measurement-hang fault stream (nil when fault
	// injection is off); measureRetries counts the hung measurements this
	// job killed and retried; retryCycles the share of cycles spent on
	// their timeouts and backoff (for the trace's time breakdown).
	hangs          *fault.MeasureStream
	measureRetries int
	retryCycles    int64

	dsIdx     int
	runActive bool
	// invocations counts TS invocations consumed; cycles the simulated
	// time (TS executions, RBR overheads, hang timeouts/backoff, and for
	// WHL the non-TS part of its dedicated runs).
	invocations int64
	cycles      int64
	// runs counts dedicated whole application runs (WHL only; shared-run
	// ratings are packed globally by the engine).
	runs int
}

func (e *engine) newRatingCtx(jobKey string) *ratingCtx {
	return &ratingCtx{e: e, jobKey: jobKey, hangs: e.faults.MeasureStream(jobKey)}
}

// start builds the job's simulated memory, runner, clock and data RNG.
func (c *ratingCtx) start() {
	e, key := c.e, c.jobKey
	c.mem = sim.NewMemory(e.prog)
	c.runner = sim.NewRunner(e.t.Mach, c.mem, sched.DeriveSeed(e.rootSeed, key+"/runner"))
	c.clock = sim.NewClockWith(e.cfg.NoiseModel(e.t.Mach), sched.DeriveSeed(e.rootSeed, key+"/clock"))
	c.rng = rand.New(rand.NewSource(sched.DeriveSeed(e.rootSeed, key+"/data")))
}

// hangBeforeMeasure draws the injected hang faults preceding one timed
// measurement: each hang is detected by a watchdog timeout and retried
// after deterministic backoff, all charged to the job's simulated time.
// Returns fault.ErrRetriesExhausted (wrapped) when hangs persist past the
// retry bound.
func (c *ratingCtx) hangBeforeMeasure() error {
	if c.hangs == nil {
		return nil
	}
	retries, cost, err := c.hangs.HangRetries()
	c.cycles += cost
	c.retryCycles += cost
	c.measureRetries += retries
	return err
}

// startRun begins a fresh application run over the tuning dataset.
func (c *ratingCtx) startRun() {
	ds := c.e.t.Dataset
	c.runner.ResetMicroarch()
	if ds.Setup != nil {
		ds.Setup(c.mem, c.rng)
	}
	c.dsIdx = 0
	c.runActive = true
}

// nextInvocation yields the arguments (and CBR key) of the next TS
// invocation, starting a new program run when the dataset is exhausted.
func (c *ratingCtx) nextInvocation(needKey bool) (args []float64, key string) {
	if !c.runActive || c.dsIdx >= c.e.t.Dataset.NumInvocations {
		c.startRun()
	}
	args = c.e.t.Dataset.Args(c.dsIdx, c.mem, c.rng)
	c.dsIdx++
	if needKey {
		key = c.e.t.Profile.CBRKeyFor(c.e.t.Bench, args, c.mem)
	}
	return args, key
}

// jobResult is one rating job's outcome plus its ledger contribution.
type jobResult struct {
	rating    Rating
	converged bool
	escalated bool
	// memoized marks an outcome restored from the persistent store's memo
	// table instead of simulated (trace tier "memo"). The restored fields
	// are byte-identical to what the simulation would have produced.
	memoized bool
	ctx      *ratingCtx
	// jobRetries counts injected worker panics this job survived before
	// the attempt that produced the result.
	jobRetries int
	err        error
}

// errMethodExhausted reports that no applicable rating method converged.
var errMethodExhausted = fmt.Errorf("core: all rating methods failed to converge")

// ErrInterrupted reports that Tuner.Interrupt stopped the tune between
// Iterative Elimination rounds. With a Journal attached the completed
// rounds are checkpointed, so re-running the same tune against the same
// journal resumes it and finishes byte-identical to an uninterrupted run.
var ErrInterrupted = errors.New("core: tuning interrupted between rounds")

// rateJob rates the experimental flag set against the base flag set with
// method m in a fresh per-job context named by jobKey. It performs no
// round-level method switching — non-convergence is reported to the round
// reduction, which owns that decision (§3's runtime switching, made
// deterministic). What it may do, when escalatable, is degrade a single
// still-wide CBR or AVG rating to RBR once the escalation budget is spent:
// RBR is always applicable, so the job salvages a usable rating for this
// flag without forcing the whole round onto another method.
func (e *engine) rateJob(jobKey string, m Method, exp, base opt.FlagSet, escalatable bool) jobResult {
	c := e.newRatingCtx(jobKey)
	res := jobResult{ctx: c}
	defer func() { e.pool.Stats().AddCycles(c.cycles) }()

	expVI, _, err := e.versions.resolve(exp)
	if err != nil {
		res.err = err
		return res
	}
	var baseVI versionInfo
	if m != MethodWHL {
		baseVI, _, err = e.versions.resolve(base)
		if err != nil {
			res.err = err
			return res
		}
	}
	// Memo hook: with a store attached, the job's complete identity is
	// looked up in the frozen read set; a hit restores the recorded
	// outcome — rating, convergence, escalation and the job's private
	// cycle ledger — and skips simulate entirely. A miss simulates and
	// records the outcome for the store's next flush. Version resolution
	// above already happened either way, so the tune's compile-cache
	// ledger and dedup grouping are identical with and without memo hits.
	// (WHL rates without a base; its key carries the zero fingerprint
	// there.)
	var memoK string
	if e.store != nil {
		memoK = e.rateMemoKey(jobKey, m, expVI.fp128, baseVI.fp128, escalatable)
	}
	saved, hit, err := store.Memo(e.store, rateKind, memoK, func() (rateMemo, error) {
		e.simulate(&res, m, expVI.v, baseVI.v, escalatable)
		return res.memo(), res.err
	})
	if hit {
		res.restore(saved)
		res.memoized = true
	}
	res.err = err
	return res
}

// simulate is rateJob's simulation body: it rates expV against baseV
// (nil for WHL) with method m in res's context, filling res's rating,
// convergence, escalation and error.
func (e *engine) simulate(res *jobResult, m Method, expV, baseV *sim.Version, escalatable bool) {
	c := res.ctx
	c.start()
	if m == MethodWHL {
		res.rating, res.err = e.rateWHL(c, expV)
		res.converged = res.err == nil
		return
	}

	budget := 0
	if escalatable && (m == MethodCBR || m == MethodAVG) {
		budget = e.cfg.escalationBudget()
	}
	r := newRater(m, e.t.Profile, e.cfg, c.mem)
	needKey := m == MethodCBR
	checkEvery := e.cfg.Window / 8
	if checkEvery < 1 {
		checkEvery = 1
	}
	for used := 0; used < e.cfg.MaxInvPerVersion; {
		if err := c.hangBeforeMeasure(); err != nil {
			res.err = fmt.Errorf("tune %s [%s]: %w", e.t.Bench.Name, m, err)
			return
		}
		args, key := c.nextInvocation(needKey)
		ic := &invocation{
			args: args, key: key,
			runner: c.runner, clock: c.clock, mem: c.mem,
			best: baseV, exp: expV,
		}
		cycles, err := r.observe(ic)
		c.cycles += cycles
		c.invocations++
		used++
		if err != nil {
			res.err = fmt.Errorf("tune %s [%s]: %w", e.t.Bench.Name, m, err)
			return
		}
		if used%checkEvery == 0 && r.converged(e.cfg) {
			res.rating, res.converged = r.rating(), true
			return
		}
		if budget > 0 && !res.escalated && r.used() >= budget {
			r = newRater(MethodRBR, e.t.Profile, e.cfg, c.mem)
			needKey = false
			res.escalated = true
		}
	}
	res.rating = r.rating()
}

// rateWHL times one whole dedicated application run for the version — the
// state-of-the-art baseline ("executing the whole program to rate one
// version", §1).
func (e *engine) rateWHL(c *ratingCtx, expV *sim.Version) (Rating, error) {
	ds := e.t.Dataset
	c.startRun()
	var total int64
	var measured float64
	for i := 0; i < ds.NumInvocations; i++ {
		if err := c.hangBeforeMeasure(); err != nil {
			return Rating{}, fmt.Errorf("tune %s [WHL]: %w", e.t.Bench.Name, err)
		}
		args := ds.Args(i, c.mem, c.rng)
		_, st, err := c.runner.Run(expV, args)
		if err != nil {
			return Rating{}, fmt.Errorf("tune %s [WHL]: %w", e.t.Bench.Name, err)
		}
		total += st.Cycles
		measured += c.clock.Measure(st.Cycles)
		c.invocations++
	}
	c.dsIdx = ds.NumInvocations
	c.cycles += total + e.t.Bench.NonTSCycles
	c.runs++
	// Per-invocation jitter largely averages out over a whole run, which
	// is what makes WHL "the best that can be achieved by static tuning"
	// (§5.2) — just extremely slow.
	return Rating{Method: MethodWHL, EVAL: measured + float64(e.t.Bench.NonTSCycles),
		Samples: ds.NumInvocations}, nil
}

// account merges one job's ledger into the tuning result. Only the
// reduction goroutine calls it, in ascending job order.
func (e *engine) account(r *jobResult) {
	e.res.TuningCycles += r.ctx.cycles
	e.res.Invocations += r.ctx.invocations
	e.res.ProgramRuns += r.ctx.runs
	e.res.VersionsRated++
	e.res.MeasureRetries += r.ctx.measureRetries
	e.res.JobRetries += r.jobRetries
	if r.ctx.runs == 0 {
		e.sharedInv += r.ctx.invocations
	}
}

// rateJobSafe wraps rateJob in panic isolation. An injected worker panic
// (fault.InjectedPanic) kills the attempt before it consumes simulated
// time; the job is retried under a derived key — "<jobKey>/retry=N" — so
// the retry draws fresh per-job streams yet the whole recovery remains a
// pure function of identities, never of scheduling. Panics past the retry
// bound, and panics that are genuine bugs rather than injections, surface
// as job errors.
func (e *engine) rateJobSafe(jobKey string, m Method, exp, base opt.FlagSet, escalatable bool) jobResult {
	if e.faults == nil {
		return e.rateJob(jobKey, m, exp, base, escalatable)
	}
	key := jobKey
	for attempt := 0; ; {
		res, panicked := e.rateJobAttempt(key, m, exp, base, escalatable)
		if !panicked {
			res.jobRetries = attempt
			return res
		}
		attempt++
		if attempt > e.faults.JobRetries() {
			return jobResult{err: fmt.Errorf("tune %s [%s]: job %s kept panicking: %w",
				e.t.Bench.Name, m, jobKey, fault.ErrRetriesExhausted)}
		}
		key = fmt.Sprintf("%s/retry=%d", jobKey, attempt)
	}
}

func (e *engine) rateJobAttempt(key string, m Method, exp, base opt.FlagSet, escalatable bool) (res jobResult, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(fault.InjectedPanic); ok {
				panicked = true
				return
			}
			res = jobResult{err: fmt.Errorf("tune %s [%s]: job %s panicked: %v", e.t.Bench.Name, m, key, r)}
		}
	}()
	if e.faults.PanicsJob(key) {
		panic(fault.InjectedPanic{Key: key})
	}
	return e.rateJob(key, m, exp, base, escalatable), false
}

// rateRound rates every candidate flag removal of one Iterative
// Elimination round, sharded across the pool, and returns each
// candidate's improvement over the round's base rating.
//
// The rating method can switch here: if the base rating or any candidate
// rating fails to converge under the current method and a next applicable
// method remains, the whole round is re-rated under that method (§3,
// "if the system cannot achieve enough accuracy ... it switches to the
// next applicable rating method"). Because the decision depends only on
// the index-ordered job results — never on completion order — the switch
// point is identical at every worker count.
// With fault injection on, a candidate whose compilation failed
// golden-output verification is quarantined: it is never rated (its code
// computes wrong results — its speed is meaningless), its improvement is
// zero, and its index is returned so Iterative Elimination removes the
// flag from the search and records it in TuneResult.Quarantined.
func (e *engine) rateRound(round int, current opt.FlagSet, candidates []opt.Flag) (imps []float64, quarantined []int, err error) {
	// Precompile the base and every candidate and group the candidates by
	// code fingerprint. A candidate whose generated code is identical to the
	// base cannot improve on it — rating it would only hand measurement
	// noise a chance to fake a winner — so it is skipped outright (leader
	// -1, improvement 0). Candidates that share code with an earlier
	// candidate are rated once, by the earliest (the group's leader), and
	// inherit its rating. Fingerprints depend only on the compiler, never on
	// scheduling or the rating method, so the grouping — and therefore every
	// skip — is identical at any worker count and with the cache on or off.
	// The compiles themselves run first, in parallel (prefetch); the walk
	// below resolves them serially in candidate order.
	traced := e.tb != nil
	e.versions.prefetch(e.pool, roundSets(current, candidates))
	baseVI, baseFresh, err := e.versions.resolve(current)
	if err != nil {
		return nil, nil, err
	}
	if traced {
		e.emitCache(round, 0, baseLabel, baseVI, baseFresh)
	}
	baseFP := baseVI.fp
	leaderOf := make([]int, len(candidates)) // -1: identical to base; -2: quarantined
	firstByFP := make(map[uint64]int, len(candidates))
	var leaders []int
	for i, f := range candidates {
		vi, fresh, err := e.versions.resolve(current.Without(f))
		if err != nil {
			return nil, nil, err
		}
		if traced {
			e.emitCache(round, i+1, f.String(), vi, fresh)
		}
		if vi.quarantined {
			leaderOf[i] = -2
			quarantined = append(quarantined, i)
			if traced {
				e.emit(trace.Event{Kind: trace.KindQuarantine, Round: round + 1,
					Ordinal: i + 1, Flag: f.String()})
			}
			continue
		}
		switch first, ok := firstByFP[vi.fp]; {
		case vi.fp == baseFP:
			leaderOf[i] = -1
			if traced {
				e.emit(trace.Event{Kind: trace.KindDedup, Round: round + 1,
					Ordinal: i + 1, Flag: f.String(), Leader: baseLabel})
			}
		case ok:
			leaderOf[i] = first
			if traced {
				e.emit(trace.Event{Kind: trace.KindDedup, Round: round + 1,
					Ordinal: i + 1, Flag: f.String(), Leader: candidates[first].String()})
			}
		default:
			firstByFP[vi.fp] = i
			leaderOf[i] = i
			leaders = append(leaders, i)
		}
	}

	for {
		m := e.methods[e.mi]

		// One Map rates the round: the base version first (RBR rates
		// relative improvement directly and needs no base measurement; every
		// other method anchors improvements to the base version's absolute
		// rating), then the group leaders. Only leaders are rated; the job
		// keys keep the per-flag format, so a leader's seeds (and rating) do
		// not depend on which other candidates happened to share its code.
		// Results are reduced in that order — base, then leaders by index —
		// whichever goroutine finished first.
		withBase := m != MethodRBR
		jobs := leaders
		if withBase {
			jobs = append([]int{-1}, leaders...)
		}
		escalatable := e.t.Force == nil
		var base jobResult
		results := make([]jobResult, len(candidates))
		e.pool.Map(len(jobs), func(j int) {
			i := jobs[j]
			if i < 0 {
				base = e.rateJobSafe(fmt.Sprintf("round=%d/method=%s/base", round, m), m, current, current, false)
				return
			}
			f := candidates[i]
			key := fmt.Sprintf("round=%d/method=%s/flag=%s", round, m, f)
			results[i] = e.rateJobSafe(key, m, current.Without(f), current, escalatable)
		})

		var baseRating Rating
		baseEval := math.NaN()
		baseConverged := true
		if withBase {
			if base.err != nil {
				return nil, nil, base.err
			}
			e.account(&base)
			if traced {
				e.emitRate(round, 0, baseLabel, &base)
			}
			baseRating = base.rating
			baseEval = base.rating.EVAL
			baseConverged = base.converged
		}

		allConverged := baseConverged
		for _, i := range leaders {
			r := &results[i]
			if r.err != nil {
				return nil, nil, r.err
			}
			e.account(r)
			if traced {
				e.emitRate(round, i+1, candidates[i].String(), r)
				if r.escalated {
					e.emit(trace.Event{Kind: trace.KindEscalate, Round: round + 1,
						Ordinal: i + 1, Flag: candidates[i].String(), Method: MethodRBR.String()})
				}
			}
			if r.escalated {
				e.res.Escalations++
				e.res.EscalatedFlags = append(e.res.EscalatedFlags, candidates[i])
			}
			if !r.converged {
				allConverged = false
			}
		}
		// Every non-leader is a rating this round attempt did not run —
		// except quarantined candidates, which were never eligible at all.
		e.res.DedupSkips += len(candidates) - len(leaders) - len(quarantined)

		if !allConverged && e.mi+1 < len(e.methods) {
			// Not converging: switch to the next applicable method and
			// re-rate the round — the base rating's units no longer match.
			e.mi++
			e.switched++
			if traced {
				e.emit(trace.Event{Kind: trace.KindMethodSwitch, Round: round + 1,
					Method: e.methods[e.mi].String(), Detail: m.String()})
			}
			continue
		}
		// Converged, or last resort: accept the ratings as they stand.
		// Under ConvergeCI a candidate's improvement additionally has to be
		// statistically significant: a CBR rating must differ from the base
		// rating by Welch's t-test, and an RBR rating's confidence interval
		// must exclude 1 (no change). Insignificant improvements are zeroed
		// so Iterative Elimination never keeps a flag removal on what is
		// plausibly just noise. AVG is deliberately left ungated — it is the
		// paper's naive baseline — and MBR's VAR is a regression residual
		// ratio, not a sample variance, so no interval exists for it.
		gate := e.cfg.Convergence == ConvergeCI
		conf := e.cfg.confidence()
		imps = make([]float64, len(candidates))
		for _, i := range leaders {
			rt := results[i].rating
			imp := rt.ImprovementOver(baseEval)
			if gate && imp != 0 {
				switch rt.Method {
				case MethodCBR:
					if !stats.WelchSignificant(baseRating.EVAL, baseRating.VAR, baseRating.Samples,
						rt.EVAL, rt.VAR, rt.Samples, conf) {
						imp = 0
					}
				case MethodRBR:
					if math.Abs(rt.EVAL-1) < rt.CIHalf {
						imp = 0
					}
				}
			}
			imps[i] = imp
		}
		for i, l := range leaderOf {
			if l >= 0 && l != i {
				// Identical code, identical rating: inherit the leader's
				// (already gated) improvement.
				imps[i] = imps[l]
			}
		}
		return imps, quarantined, nil
	}
}

// iterativeElimination searches the flag space (paper §5.2, algorithm from
// [11]): starting from -O3, each round rates every remaining flag switched
// off and permanently removes the flag whose removal helps most, until no
// removal improves the rating by more than the threshold. Quarantined
// candidates (miscompiles caught by verification) are removed from the
// search as they are discovered.
//
// With a journal attached, completed rounds are checkpointed and a journal
// that already holds state for this tune's checkpoint ID resumes it: the
// pre-checkpoint rounds are skipped, their flag sets re-resolved without
// re-accounting, and the final TuneResult is byte-identical to an
// uninterrupted run's.
func (e *engine) iterativeElimination() error {
	const maxRounds = 8
	current := opt.O3()
	candidates := opt.AllFlags()
	if e.t.Candidates != nil {
		candidates = append([]opt.Flag(nil), e.t.Candidates...)
	}
	startRound := 0
	stopped := false

	if e.journal != nil {
		if rec, ok := e.journal.Latest(e.ckptID); ok {
			st, err := e.restore(rec.State)
			if err != nil {
				return err
			}
			current = opt.FlagSet(st.Current)
			candidates = flagsOf(st.Candidates)
			startRound = rec.Round + 1
			stopped = rec.Stopped
		}
	}

	for round := startRound; round < maxRounds && !stopped; round++ {
		if e.t.Interrupt != nil && e.t.Interrupt() {
			return ErrInterrupted
		}
		e.res.Rounds = round + 1
		if e.tb != nil {
			e.emit(trace.Event{Kind: trace.KindRoundStart, Round: round + 1,
				Method: e.methods[e.mi].String(), Count: int64(len(candidates))})
		}
		imps, quarantined, err := e.rateRound(round, current, candidates)
		if err != nil {
			return err
		}
		bestIdx := -1
		bestImp := e.cfg.ImprovementThreshold
		for i, imp := range imps {
			if imp > bestImp {
				bestImp, bestIdx = imp, i
			}
		}
		drop := make(map[int]bool, len(quarantined)+1)
		for _, i := range quarantined {
			drop[i] = true
			e.res.Quarantined = append(e.res.Quarantined, candidates[i])
		}
		if bestIdx >= 0 {
			f := candidates[bestIdx]
			current = current.Without(f)
			e.res.Removed = append(e.res.Removed, f)
			drop[bestIdx] = true
		} else {
			stopped = true
		}
		if len(drop) > 0 {
			kept := make([]opt.Flag, 0, len(candidates)-len(drop))
			for i, f := range candidates {
				if !drop[i] {
					kept = append(kept, f)
				}
			}
			candidates = kept
		}
		if e.tb != nil {
			ev := trace.Event{Kind: trace.KindRoundEnd, Round: round + 1,
				Outcome: "stopped", Cycles: e.res.TuningCycles}
			if bestIdx >= 0 {
				ev.Outcome = "removed"
				ev.Flag = e.res.Removed[len(e.res.Removed)-1].String()
				ev.Improvement = bestImp
			}
			e.emit(ev)
		}
		if err := e.checkpoint(round, current, candidates, stopped); err != nil {
			return err
		}
	}
	e.res.Best = current
	return nil
}

// flagsOf is the inverse of checkpoint.go's intsOf; len 0 maps back to nil
// so restored TuneResult slices compare equal to never-checkpointed ones.
func flagsOf(ints []int) []opt.Flag {
	if len(ints) == 0 {
		return nil
	}
	out := make([]opt.Flag, len(ints))
	for i, v := range ints {
		out[i] = opt.Flag(v)
	}
	return out
}
