// Package serve implements the peak-serve tuning daemon: a long-running
// HTTP/JSON service that accepts tuning jobs (POST /tune), runs them
// concurrently on a shared scheduler pool through core.Tuner, and exposes
// results, per-job traces and reports, health, and server statistics.
//
// The service extends the repository's determinism contract across
// concurrency: a job's terminal Result, report and trace are byte-identical
// whether it ran alone or interleaved with any number of other jobs, with
// the shared compile cache on or off. Three mechanisms carry that:
//
//   - Jobs are content-addressed. A job's ID is a hash of its canonical
//     spec, so identical requests share one job (idempotent POST) and a
//     job's identity — which seeds every random stream in the tune via
//     sched.DeriveSeed — never depends on arrival order.
//   - Observability is per-job. Each job gets its own trace.Buffer,
//     trace.Tracer (seq restarts at 1) and trace.Metrics registry; the
//     shared cache's global counters never leak into a job's ledger
//     (TuneResult's cache counters are the tune's own memo table).
//   - Sharing is semantics-free. The compile cache stores frozen,
//     deterministically compiled versions, and the profile and ref-dataset
//     measurement tables hold values that are pure functions of their keys,
//     so sharing them across jobs changes wall time, never results.
//
// Draining (SIGINT/SIGTERM in cmd/peak-serve, or Server.Drain) is
// graceful: running jobs stop at the next Iterative Elimination round
// boundary via Tuner.Interrupt, their completed rounds already checkpointed
// in the shared journal; queued jobs are marked interrupted untouched.
// Re-POSTing an interrupted job's request to a server holding the same
// journal resumes it byte-identically.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"peak/internal/cli"
	"peak/internal/core"
	"peak/internal/opt"
	"peak/internal/profiling"
	"peak/internal/sched"
	"peak/internal/store"
	"peak/internal/trace"
	"peak/internal/vcache"
)

// Options configures a Server.
type Options struct {
	// Workers sets, with Jobs, the shared scheduler pool's budget of
	// lanes: max(Workers, Jobs), with Workers <= 0 meaning GOMAXPROCS.
	// Every running job holds one lane for its job slot, and all jobs'
	// candidate ratings shard across the pool's remaining lanes, so a lone
	// job's ratings borrow the lanes of idle slots. Any value gives
	// identical job results.
	Workers int
	// Jobs is the number of jobs allowed to run concurrently (job slots);
	// <= 0 means 1.
	Jobs int
	// Queue is the bounded job queue's capacity; a POST arriving with the
	// queue full is refused with 429 + Retry-After. <= 0 means 8.
	Queue int
	// NoSharedCache gives every job a private compile cache instead of
	// the process-wide shared one, and makes every job profile and measure
	// privately instead of reusing the server's single-flight profile and
	// measurement tables. Results are byte-identical either way; only wall
	// time and the /stats cache and reuse totals change.
	NoSharedCache bool
	// Journal, when non-nil, checkpoints every job after each completed
	// tuning round, keyed by "serve/" + canonical spec, and resumes jobs
	// whose spec already has journaled state (cmd/peak-serve keeps it in
	// its -cache-dir). JournalPath is ignored; it is kept only so older
	// callers compile.
	Journal     *store.Journal
	JournalPath string

	// Deadline is the default per-job wall-clock budget (0 = none); a
	// request's deadline_ms overrides it. A job's round poll, which the
	// engine calls before every Iterative Elimination round, cancels an
	// overrunning job there: it is reported timed_out with its completed
	// rounds checkpointed, and resubmission resumes it. The first poll
	// follows the job's profile run and its -O3 ref measurement, which run
	// before the tune.
	Deadline time.Duration

	// WatchdogStall, when > 0, arms the watchdog: a round poll that comes
	// more than this long after the job's previous poll cancels the job
	// like a deadline overrun (state timed_out, reason "watchdog: ...").
	// The first gap runs from the job's start, so it covers the profile
	// run, the -O3 ref measurement (one after the other when no lane is
	// free) and the engine's setup, and the bound must exceed all three
	// together. A stall is seen only at the poll that ends it; the final
	// ref measurements after the last round are never cut.
	WatchdogStall time.Duration

	// BreakerFailures, when > 0, arms the circuit breaker: that many
	// consecutive job failures trip it open, shedding new non-duplicate
	// work with 503 (duplicate-spec results keep serving) until
	// BreakerCooldown (0 = 30s) elapses and a probe job half-opens it.
	BreakerFailures int
	BreakerCooldown time.Duration
	// QuarantineStorm, when > 0, makes a job that completes with at least
	// this many quarantined flags (miscompile storm from the fault layer)
	// count as a breaker failure even though the job itself is done.
	QuarantineStorm int

	// Store, when non-nil, is the persistent warm-start store
	// (cmd/peak-serve -cache-dir): at New the store's compile-cache
	// snapshot preloads the shared cache and every finished job recorded in
	// a previous process is restored in state "done" — a duplicate
	// submission is then answered without running a single simulation. At
	// Drain the store is flushed (cache snapshot + new memo records +
	// finished-job artifacts) so the next boot warm-starts from this one.
	// Results, reports and traces stay byte-identical with or without a
	// store; only wall time and the /stats store/memo blocks change.
	Store *store.Store
}

// Server is the tuning service. Create with New, attach Handler to an
// http.Server, and call Start; stop with Drain.
type Server struct {
	opts    Options
	pool    sched.Pool
	cache   *vcache.Cache // nil when NoSharedCache
	journal *store.Journal
	store   *store.Store // nil without -cache-dir

	// profiles and measures are the single-flight tables for the two pure
	// per-job stages: the profile run keyed by bench/dataset/machine, and
	// the ref-dataset measurement keyed by bench/machine/flags (nil when
	// NoSharedCache).
	profiles *onceTable[*profiling.Profile]
	measures *onceTable[int64]

	// restoredJobs counts finished jobs rebuilt from store artifacts at
	// New; storeFlushErr (under mu) records the last drain-flush failure.
	restoredJobs  atomic.Int64
	storeFlushErr string
	// profileSims counts profile runs simulated rather than answered by
	// the store (tests read it; /stats shows the profiles table instead).
	profileSims atomic.Int64

	queue    chan *job
	draining atomic.Bool
	drainCh  chan struct{}
	wg       sync.WaitGroup

	// breaker is the failure-storm circuit breaker (nil = disabled);
	// watchdogStalls counts jobs a round poll canceled for a stall.
	breaker        *breaker
	watchdogStalls atomic.Int64

	mu   sync.Mutex
	jobs map[string]*job // job ID -> job

	// durMu guards durations, a ring of the last recentDurations job wall
	// times (seconds) feeding the Retry-After estimate.
	durMu     sync.Mutex
	durations []float64
	durNext   int

	// gate, when non-nil, is received from before each job runs — test
	// instrumentation for pinning admission-control and drain timing.
	// roundGate, when non-nil, is received from at every Interrupt poll —
	// test instrumentation for freezing tunes at round boundaries.
	gate      chan struct{}
	roundGate chan struct{}
}

// recentDurations is the Retry-After estimator's window: the mean of the
// last 32 completed jobs' wall times.
const recentDurations = 32

// New builds a Server from opts. Call Start before serving requests.
func New(opts Options) *Server {
	if opts.Jobs <= 0 {
		opts.Jobs = 1
	}
	if opts.Queue <= 0 {
		opts.Queue = 8
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		opts: opts,
		// Job slots and rating helpers draw from one budget of lanes: at
		// -workers 1 -jobs 2 two running jobs use exactly two goroutines,
		// and a lone job's ratings borrow the idle slot's lane.
		pool:    sched.New(max(opts.Workers, opts.Jobs)),
		journal: opts.Journal,
		queue:   make(chan *job, opts.Queue),
		drainCh: make(chan struct{}),
		jobs:    make(map[string]*job),
		breaker: newBreaker(opts.BreakerFailures, opts.BreakerCooldown),
	}
	if !opts.NoSharedCache {
		s.cache = vcache.New()
		s.profiles = newOnceTable[*profiling.Profile]()
		s.measures = newOnceTable[int64]()
	}
	if opts.Store != nil {
		s.store = opts.Store
		if s.cache != nil {
			s.store.AttachCache(s.cache)
		}
		s.restoreJobs()
	}
	return s
}

// restoreJobs rebuilds finished jobs from the store's job artifacts (the
// frozen read set loaded at Open). Each restored job sits in the jobs map
// in state "done" with its original result, report, metrics and trace, so
// a duplicate submission is answered from memory with zero simulator
// invocations. Artifacts that fail to decode, or whose canonical spec no
// longer matches their key (schema drift across versions), are skipped —
// the job simply runs fresh when resubmitted. Artifacts decode in
// parallel; jobs are installed in key order.
func (s *Server) restoreJobs() {
	var keys []string
	var payloads [][]byte
	s.store.MemoEach(core.MemoKindJob, func(key string, payload []byte) {
		keys = append(keys, key)
		payloads = append(payloads, payload)
	})
	jobs := make([]*job, len(keys))
	// New runs before Start, so no job competes for the cores.
	sched.New(0).Map(len(keys), func(i int) { jobs[i] = restoreJob(keys[i], payloads[i]) })
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range jobs {
		if j != nil {
			s.jobs[j.id] = j
			s.restoredJobs.Add(1)
		}
	}
}

// restoreJob decodes one job artifact stored under key, or returns nil
// when it does not decode or no longer names key.
func restoreJob(key string, payload []byte) *job {
	var art jobArtifact
	if err := json.Unmarshal(payload, &art); err != nil {
		return nil
	}
	var req Request
	if err := json.Unmarshal(art.Request, &req); err != nil {
		return nil
	}
	sp, err := parseSpec(req)
	if err != nil || sp.canonical != key {
		return nil
	}
	j := newJob(sp)
	j.state = StateDone
	j.res = art.Result
	j.report = art.Report
	j.metrics = art.Metrics
	j.traceData = art.Trace
	return j
}

// Start launches the job slots. It returns immediately.
func (s *Server) Start() {
	for i := 0; i < s.opts.Jobs; i++ {
		s.wg.Add(1)
		go s.slot()
	}
}

// slot is one job-runner goroutine: it drains the queue until Drain is
// signalled and the queue is empty. Jobs dequeued after the drain signal
// are marked interrupted without running (nothing is checkpointed for
// them, so resubmission simply starts them fresh).
func (s *Server) slot() {
	defer s.wg.Done()
	for {
		select {
		case j := <-s.queue:
			s.dispatch(j)
		case <-s.drainCh:
			// Drain signalled: flush what is still queued, then exit.
			for {
				select {
				case j := <-s.queue:
					s.dispatch(j)
				default:
					return
				}
			}
		}
	}
}

func (s *Server) dispatch(j *job) {
	if s.gate != nil {
		<-s.gate
	}
	if s.draining.Load() {
		j.mu.Lock()
		j.state = StateInterrupted
		j.errMsg = "server draining before the job started; resubmit to resume"
		j.mu.Unlock()
		return
	}
	// The running job occupies its slot's lane; its rating Maps borrow
	// only the lanes no other running job holds.
	release := s.pool.Hold()
	defer release()
	s.runJob(j)
}

// Submit validates, canonicalizes and enqueues a request. The returned
// code is the HTTP status the job's admission maps to: 202 accepted, 200
// already known (idempotent resubmission — also how an interrupted or
// timed-out job is resumed), 400 invalid, 429 queue full, 503 draining or
// circuit breaker open. Known specs are answered before admission control,
// so an open breaker keeps serving finished results.
func (s *Server) Submit(req Request) (Result, int, error) {
	sp, err := parseSpec(req)
	if err != nil {
		return Result{}, 400, err
	}
	if s.draining.Load() {
		return Result{}, 503, errors.New("server is draining")
	}
	j := newJob(sp)
	s.mu.Lock()
	if existing, ok := s.jobs[j.id]; ok {
		// Same canonical spec: the job already exists (possibly finished).
		// An interrupted or timed-out job is re-queued so the tune resumes
		// from the journal; any other state is simply reported.
		requeue := false
		wasTimeout := false
		existing.mu.Lock()
		if existing.state == StateInterrupted || existing.state == StateTimedOut {
			wasTimeout = existing.state == StateTimedOut
			existing.state = StateQueued
			existing.errMsg = ""
			// The deadline is operational, not identity: the resume runs
			// under the new request's deadline (0 = the server default),
			// not the one that may just have expired.
			existing.spec.deadline = sp.deadline
			requeue = true
		}
		existing.mu.Unlock()
		s.mu.Unlock()
		if requeue {
			select {
			case s.queue <- existing:
			default:
				existing.mu.Lock()
				if wasTimeout {
					existing.state = StateTimedOut
				} else {
					existing.state = StateInterrupted
				}
				existing.errMsg = "job queue full before resume could start; resubmit to resume"
				existing.mu.Unlock()
				return existing.snapshot(), 429, errors.New("job queue is full")
			}
		}
		return existing.snapshot(), 200, nil
	}
	// New work passes the circuit breaker (while the breaker is open or
	// probing, fresh specs are shed; everything above — duplicates,
	// resumes, finished results — is served normally).
	if ok, reason := s.breaker.admit(j.id); !ok {
		s.mu.Unlock()
		return Result{}, 503, errors.New(reason)
	}
	s.jobs[j.id] = j
	s.mu.Unlock()

	select {
	case s.queue <- j:
		return j.snapshot(), 202, nil
	default:
		s.mu.Lock()
		delete(s.jobs, j.id)
		s.mu.Unlock()
		// If this job had just been admitted as the half-open probe, free
		// the probe slot — it never ran.
		s.breaker.abandon(j.id)
		return Result{}, 429, errors.New("job queue is full")
	}
}

// Job returns the snapshot of a job by ID.
func (s *Server) Job(id string) (Result, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return Result{}, false
	}
	return j.snapshot(), true
}

// JobTrace returns a job's flushed JSONL trace and whether the job has
// reached a terminal state (the trace is only written then).
func (s *Server) JobTrace(id string) (data []byte, done, ok bool) {
	s.mu.Lock()
	j, found := s.jobs[id]
	s.mu.Unlock()
	if !found {
		return nil, false, false
	}
	data, done = j.trace()
	return data, done, true
}

// Jobs lists every job's snapshot, sorted by canonical spec (stable
// regardless of submission order).
func (s *Server) Jobs() []Result {
	s.mu.Lock()
	js := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		js = append(js, j)
	}
	s.mu.Unlock()
	out := make([]Result, len(js))
	for i, j := range js {
		out[i] = j.snapshot()
	}
	// Sort after snapshotting so we hold no job locks while comparing.
	slices.SortFunc(out, func(a, b Result) int { return strings.Compare(a.Spec, b.Spec) })
	return out
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain gracefully stops the server's job slots: no new submissions are
// admitted, running jobs stop at their next round boundary (state
// "interrupted", completed rounds checkpointed when a journal is
// attached), queued jobs are marked interrupted unrun. It blocks until
// every slot has exited, syncs the journal, and returns the interrupted
// jobs' snapshots — cmd/peak-serve prints a resume command for each.
func (s *Server) Drain() []Result {
	if !s.draining.CompareAndSwap(false, true) {
		s.wg.Wait()
	} else {
		close(s.drainCh)
		s.wg.Wait()
	}
	if s.journal != nil {
		s.journal.Sync()
	}
	if s.store != nil {
		// Flush the warm-start store: the shared cache's snapshot, every
		// memo record the tunes produced, and every finished job's artifact.
		// A flush failure never blocks the drain — it is surfaced in /stats.
		if err := s.store.Flush(); err != nil {
			s.mu.Lock()
			s.storeFlushErr = err.Error()
			s.mu.Unlock()
		}
	}
	var interrupted []Result
	for _, r := range s.Jobs() {
		if r.State == StateInterrupted || r.State == StateQueued || r.State == StateTimedOut {
			interrupted = append(interrupted, r)
		}
	}
	return interrupted
}

// noteJobDuration records one job's wall time in the Retry-After ring.
func (s *Server) noteJobDuration(d time.Duration) {
	s.durMu.Lock()
	defer s.durMu.Unlock()
	if len(s.durations) < recentDurations {
		s.durations = append(s.durations, d.Seconds())
		return
	}
	s.durations[s.durNext] = d.Seconds()
	s.durNext = (s.durNext + 1) % recentDurations
}

// meanJobSeconds is the mean of the recorded ring (1s before any job has
// finished — tuning jobs are seconds-scale, never milliseconds).
func (s *Server) meanJobSeconds() float64 {
	s.durMu.Lock()
	defer s.durMu.Unlock()
	if len(s.durations) == 0 {
		return 1
	}
	var sum float64
	for _, v := range s.durations {
		sum += v
	}
	return sum / float64(len(s.durations))
}

// RetryAfterSeconds derives the 429 Retry-After hint from the work a
// refused client would wait behind: (queue depth + 1) slots of the recent
// mean job duration, divided across the job slots, rounded up and clamped
// to [1, 60]. The estimate is a pure function of those inputs, so it is
// unit-testable without a clock.
func (s *Server) RetryAfterSeconds() int {
	return retryAfterSeconds(len(s.queue), s.meanJobSeconds(), s.opts.Jobs)
}

// retryAfterSeconds is the deterministic core of RetryAfterSeconds.
func retryAfterSeconds(queueDepth int, meanSeconds float64, slots int) int {
	if slots < 1 {
		slots = 1
	}
	secs := float64(queueDepth+1) * meanSeconds / float64(slots)
	n := int(secs)
	if float64(n) < secs {
		n++
	}
	if n < 1 {
		n = 1
	}
	if n > 60 {
		n = 60
	}
	return n
}

// runJob executes one job, mirroring cmd/peak exactly so the report is
// byte-for-byte the CLI's output for the same arguments: profile and tune
// on the requested dataset, then measure -O3 and the winner on the ref
// dataset (the profile run and the -O3 measurement start together, see
// below). Around that core it runs the resilience bookkeeping: the round
// poll that decides whether the job stops (drain, deadline, watchdog), the
// Retry-After duration sample, and the circuit breaker's verdict.
func (s *Server) runJob(j *job) {
	j.setState(StateRunning)
	sp := j.spec
	start := time.Now()
	defer func() { s.noteJobDuration(time.Since(start)) }()

	// Per-job observability: a private buffer, metrics registry and — at
	// the end — tracer, so the job's trace is byte-identical however many
	// neighbours it ran with.
	buf := trace.NewBuffer()
	mx := trace.NewMetrics()

	// cancel names why the round poll timed the job out ("deadline ...
	// exceeded", "watchdog: ..."); it stays empty for a drain.
	var cancel string

	// Every breaker verdict lands before the job's terminal state is
	// published, so a client that sees the job end also sees the breaker
	// state that ending produced.
	fail := func(err error) {
		interrupted := errors.Is(err, core.ErrInterrupted)
		if interrupted {
			// A canceled probe renders no verdict on the breaker.
			s.breaker.abandon(j.id)
		} else {
			s.breaker.failure(j.id, fmt.Sprintf("job %s (%s): %v", j.id, sp.canonical, err))
		}
		j.mu.Lock()
		defer j.mu.Unlock()
		switch {
		case !interrupted:
			j.state = StateFailed
			j.errMsg = err.Error()
		case cancel != "":
			j.state = StateTimedOut
			j.errMsg = cancel + "; completed rounds are checkpointed — resubmit to resume"
		default:
			j.state = StateInterrupted
			j.errMsg = "interrupted by drain; completed rounds are checkpointed — resubmit to resume"
		}
	}

	// The round poll is the one place the job's stop is decided. The
	// engine calls it on this goroutine before every Iterative Elimination
	// round, and it checks in order: the drain, the deadline (the
	// request's, else the server default) and the watchdog (the time since
	// the previous poll, or since the job's start for the first one,
	// exceeds WatchdogStall).
	deadline := sp.deadline
	if deadline == 0 {
		deadline = s.opts.Deadline
	}
	lastPoll := start
	interrupt := func() bool {
		if s.roundGate != nil {
			<-s.roundGate
		}
		if s.draining.Load() {
			return true
		}
		now := time.Now()
		switch {
		case deadline > 0 && now.Sub(start) > deadline:
			cancel = fmt.Sprintf("deadline %s exceeded", deadline)
		case s.opts.WatchdogStall > 0 && now.Sub(lastPoll) > s.opts.WatchdogStall:
			cancel = fmt.Sprintf("watchdog: no round progress for %s", s.opts.WatchdogStall)
			s.watchdogStalls.Add(1)
		}
		lastPoll = now
		return cancel != ""
	}

	cfg := core.DefaultConfig()
	if sp.noise != nil {
		cfg.Noise = sp.noise
	}
	cfg.Faults = sp.faults
	// Both the consultant path and a forced method profile and tune on the
	// requested dataset, as cmd/peak does.
	ds := sp.dataset
	// The profile is a pure function of (bench, dataset, machine) and read
	// only after Run, so one run serves every job with that key, and the
	// store memoizes it under the same key, so a warm restart decodes it
	// instead of simulating. The final measurements run once per
	// bench/machine/flags in this process, resolve through the shared
	// cache and memoize in the store (all nil-safe), so a warm restart
	// answers them without simulating. Profiles and measured cycles are
	// identical on every path.
	profKey := sp.bench.Name + "/" + ds.Name + "/" + sp.mach.Name
	profile := func() (*profiling.Profile, error) {
		p, _, err := store.Memo(s.store, profiling.MemoKind, profKey, func() (profiling.Profile, error) {
			s.profileSims.Add(1)
			p, err := profiling.Run(sp.bench, ds, sp.mach)
			if err != nil {
				return profiling.Profile{}, err
			}
			return *p, nil
		})
		if err != nil {
			return nil, err
		}
		return &p, nil
	}
	measureKey := func(flags opt.FlagSet) string { return sp.bench.Name + "/" + sp.mach.Name + "/" + flags.String() }
	measureRun := func(flags opt.FlagSet) func() (int64, error) {
		return func() (int64, error) {
			ts, _, err := core.MeasurePerformanceStored(sp.bench, sp.bench.Ref, sp.mach, flags, s.cache, s.store)
			return ts, err
		}
	}
	measure := func(flags opt.FlagSet) (int64, error) {
		return s.measures.do(measureKey(flags), measureRun(flags))
	}
	// The -O3 ref measurement does not depend on the tune, so it runs
	// beside the profile run on a free lane (or right after it): a job
	// whose profile a twin is already running measures -O3 instead of
	// waiting, and -O3 is ready when the tune ends. Prefetches never wait
	// for a run in flight and count in no /stats figure; the do calls
	// below are unchanged. With private tables (NoSharedCache) both items
	// do nothing. No round poll happens before the tune, so the deadline,
	// the watchdog and a drain see this stage, -O3 measurement included,
	// only at the tune's first round.
	s.pool.Map(2, func(i int) {
		if i == 0 {
			s.profiles.prefetch(profKey, profile)
		} else {
			s.measures.prefetch(measureKey(opt.O3()), measureRun(opt.O3()))
		}
	})
	prof, err := s.profiles.do(profKey, profile)
	if err != nil {
		fail(err)
		return
	}
	env := core.Env{Pool: s.pool, Cache: s.cache, Store: s.store, Journal: s.journal, Trace: buf, Metrics: mx}
	res, err := env.Tune(core.Tuner{
		Bench:        sp.bench,
		Mach:         sp.mach,
		Dataset:      ds,
		Cfg:          cfg,
		Profile:      prof,
		Force:        sp.force,
		Candidates:   sp.candidates,
		Interrupt:    interrupt,
		CheckpointID: sp.checkpointID(),
	})
	if err != nil {
		fail(err)
		return
	}
	base, err := measure(opt.O3())
	if err != nil {
		fail(err)
		return
	}
	tuned, err := measure(res.Best)
	if err != nil {
		fail(err)
		return
	}

	var tb bytes.Buffer
	tr := trace.NewTracer(&tb)
	tr.Flush(buf)
	if err := tr.Close(); err != nil {
		fail(err)
		return
	}

	// A done job is a breaker success — unless it quarantined so many
	// miscompiled candidates that the toolchain itself looks sick.
	if storm := s.opts.QuarantineStorm; storm > 0 && len(res.Quarantined) >= storm {
		s.breaker.failure(j.id, fmt.Sprintf("job %s (%s): quarantine storm: %d miscompiled candidates",
			j.id, sp.canonical, len(res.Quarantined)))
	} else {
		s.breaker.success(j.id)
	}

	j.mu.Lock()
	j.state = StateDone
	j.res = res
	j.report = cli.FormatTuneReport(sp.bench, sp.mach, res, sp.faults != nil, base, tuned)
	j.metrics = mx.Format()
	j.traceData = tb.Bytes()
	j.mu.Unlock()

	if s.store != nil {
		// Persist the finished job verbatim so the next boot re-serves it
		// byte-for-byte without simulating. The artifact is deterministic
		// (the job's outputs are), so whichever process records a spec
		// first writes the same bytes any other would have.
		if payload, err := json.Marshal(jobArtifact{
			Request: json.RawMessage(sp.request),
			Result:  res,
			Report:  j.report,
			Metrics: j.metrics,
			Trace:   tb.Bytes(),
		}); err == nil {
			s.store.RecordMemo(core.MemoKindJob, sp.canonical, payload)
		}
	}
}
