package sched

import (
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"peak/internal/trace"
)

// Stats holds a pool's live instrumentation: job counts, simulated cycles
// consumed, and busy time. All fields are safe for concurrent use; read
// them with Load while jobs run, or via Summary after the work is done.
type Stats struct {
	// JobsQueued counts jobs handed to Map; JobsRunning is the current
	// in-flight gauge; JobsDone counts completed jobs.
	JobsQueued  atomic.Int64
	JobsRunning atomic.Int64
	JobsDone    atomic.Int64
	// Cycles accumulates simulated cycles that jobs report via AddCycles
	// (the tuning-time ledger's view of how much work the pool carried).
	Cycles atomic.Int64
	// busyNanos accumulates wall time spent inside jobs, summed over
	// workers — the numerator of the utilization figure.
	busyNanos atomic.Int64
	// Helpers counts helper goroutines Map started on free lanes.
	Helpers atomic.Int64
	// startNanos is the wall clock at first use (0 until then).
	startNanos atomic.Int64
	// endNanos latches the wall clock when the last queued job completes
	// (0 while jobs are queued or in flight). Queuing new work clears it,
	// so Wall freezes between batches instead of charging the pool for
	// whatever the caller does after the work is done. latchMu orders the
	// latch against the clear: without it, one Map's last completion could
	// latch after a concurrent Map had queued more work and cleared it,
	// freezing Wall while that work ran.
	latchMu  sync.Mutex
	endNanos atomic.Int64
	// JobPanics counts jobs that panicked and were recovered by the pool
	// (the job contributes no result; the process survives). firstPanic
	// keeps the first panic's message for the Summary line.
	JobPanics  atomic.Int64
	firstPanic atomic.Pointer[string]
}

// FirstPanic returns the first recovered job panic's message ("" if none).
func (s *Stats) FirstPanic() string {
	if p := s.firstPanic.Load(); p != nil {
		return *p
	}
	return ""
}

// AddCycles lets a running job report simulated cycles it consumed.
func (s *Stats) AddCycles(n int64) { s.Cycles.Add(n) }

// enqueue records n jobs handed to Map and re-opens the wall-time window.
func (s *Stats) enqueue(n int64) {
	if n <= 0 {
		return
	}
	s.latchMu.Lock()
	s.JobsQueued.Add(n)
	s.endNanos.Store(0)
	s.latchMu.Unlock()
}

// run executes one job with full accounting. A panicking job is recovered
// here — it becomes a counted per-job failure (JobPanics), never a process
// crash — and still completes for accounting purposes, so JobsDone reaches
// JobsQueued and Wall latches correctly even when jobs fail. Callers that
// need richer failure handling (the tuning engine retries injected panics
// under derived job keys) recover in the job itself; this recover is the
// pool's last line of defense for everyone else.
func (s *Stats) run(fn func(int), i int) {
	s.startNanos.CompareAndSwap(0, time.Now().UnixNano())
	s.JobsRunning.Add(1)
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			s.JobPanics.Add(1)
			msg := fmt.Sprint(r)
			s.firstPanic.CompareAndSwap(nil, &msg)
		}
		s.busyNanos.Add(time.Since(start).Nanoseconds())
		s.JobsRunning.Add(-1)
		s.latchMu.Lock()
		if s.JobsDone.Add(1) == s.JobsQueued.Load() {
			s.endNanos.Store(time.Now().UnixNano())
		}
		s.latchMu.Unlock()
	}()
	fn(i)
}

// Wall returns the wall time the pool spent on jobs: from the first job's
// start to now while work is queued or running, latched at the last job's
// completion once the pool drains.
func (s *Stats) Wall() time.Duration {
	start := s.startNanos.Load()
	if start == 0 {
		return 0
	}
	end := s.endNanos.Load()
	if end == 0 {
		end = time.Now().UnixNano()
	}
	return time.Duration(end - start)
}

// Utilization returns busy-time ÷ (wall-time × workers): 1.0 means every
// worker was saturated from first to last job. The result is clamped to
// [0, 1] and degenerate inputs — workers <= 0, or a pool that never ran a
// job so Wall() is zero — report 0 rather than NaN or ±Inf, so callers
// (Summary, the serve /stats endpoint) can format it unconditionally.
func (s *Stats) Utilization(workers int) float64 {
	wall := s.Wall().Nanoseconds()
	if wall <= 0 || workers <= 0 {
		return 0
	}
	// busyNanos sums completed-job time while endNanos latches at the last
	// completion instant, so rounding can push the ratio a hair past 1.
	u := float64(s.busyNanos.Load()) / float64(wall*int64(workers))
	return math.Min(math.Max(u, 0), 1)
}

// Line formats the live counters as a single status line.
func (s *Stats) Line() string {
	return fmt.Sprintf("jobs %d queued / %d running / %d done · %.2e simulated cycles · %s wall",
		s.JobsQueued.Load(), s.JobsRunning.Load(), s.JobsDone.Load(),
		float64(s.Cycles.Load()), s.Wall().Round(time.Millisecond))
}

// Summary formats the final utilization report for a finished pool. A
// nonsensical worker count (<= 0, possible when a caller forwards an
// unvalidated flag) is reported as 0 workers with zero utilization
// instead of a negative count.
func (s *Stats) Summary(workers int) string {
	if workers < 0 {
		workers = 0
	}
	line := fmt.Sprintf(
		"sched: %d jobs on %d worker(s) in %s · busy %s · utilization %.0f%% · %.3e simulated cycles",
		s.JobsDone.Load(), workers, s.Wall().Round(time.Millisecond),
		time.Duration(s.busyNanos.Load()).Round(time.Millisecond),
		100*s.Utilization(workers), float64(s.Cycles.Load()))
	if n := s.JobPanics.Load(); n > 0 {
		line += fmt.Sprintf(" · %d job panic(s) recovered (first: %s)", n, s.FirstPanic())
	}
	return line
}

// FillMetrics folds the pool's counters into a metrics registry under
// the "sched." prefix. Only the scheduling-independent totals are
// exported (job counts, simulated cycles, recovered panics, plus the
// worker count as a gauge) — wall and busy time are wall-clock and stay
// out of the deterministic -metrics report; Summary prints them. No-op
// when m is nil.
func (s *Stats) FillMetrics(m *trace.Metrics, workers int) {
	if m == nil {
		return
	}
	m.Add("sched.jobs_queued", s.JobsQueued.Load())
	m.Add("sched.jobs_done", s.JobsDone.Load())
	m.Add("sched.cycles", s.Cycles.Load())
	m.Add("sched.job_panics", s.JobPanics.Load())
	m.Gauge("sched.workers", int64(workers))
}

// StartProgress emits the pool's status line to w every interval until
// the returned stop function is called (exactly once). The cmd/ binaries
// wire this to -progress.
func StartProgress(w io.Writer, p Pool, interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				fmt.Fprintf(w, "sched: %s\n", p.Stats().Line())
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}
