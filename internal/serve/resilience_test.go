package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"peak/internal/opt"
	"peak/internal/store"
)

// waitState polls a job until it reaches want (fatal on failed-when-not-
// wanted or timeout).
func waitState(t *testing.T, s *Server, id, want string, timeout time.Duration) Result {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		res, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if res.State == want {
			return res
		}
		if terminalState(res.State) {
			t.Fatalf("job %s reached %s (error %q), want %s", id, res.State, res.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, res.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRetryAfterSeconds pins the 429 hint's derivation: the wait behind
// (queue depth + 1) jobs of the recent mean duration across the slots,
// rounded up, clamped to [1, 60].
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		depth int
		mean  float64
		slots int
		want  int
	}{
		{0, 1, 1, 1},     // empty queue, default mean: one job ahead
		{3, 1, 1, 4},     // 4 jobs ahead at 1s each
		{3, 1, 2, 2},     // same queue split over 2 slots
		{3, 2.5, 2, 5},   // fractional seconds round up
		{7, 0.1, 4, 1},   // sub-second estimates clamp up to 1
		{100, 30, 1, 60}, // pathological backlog clamps at 60
		{0, 0, 0, 1},     // degenerate inputs stay in range
	}
	for _, tc := range cases {
		if got := retryAfterSeconds(tc.depth, tc.mean, tc.slots); got != tc.want {
			t.Errorf("retryAfterSeconds(%d, %v, %d) = %d, want %d",
				tc.depth, tc.mean, tc.slots, got, tc.want)
		}
	}
}

// TestBreakerStateMachine drives the breaker through its full lifecycle
// with a pinned clock: closed → open at the failure threshold → half-open
// after the cooldown → closed on probe success (and re-open on probe
// failure; abandon frees the probe slot without a verdict).
func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBreaker(2, 10*time.Second)
	b.now = func() time.Time { return now }

	if ok, _ := b.admit("a"); !ok {
		t.Fatal("closed breaker refused a job")
	}
	b.failure("a", "boom 1")
	if b.degraded() {
		t.Fatal("one failure below the threshold tripped the breaker")
	}
	b.failure("b", "boom 2")
	if st := b.snapshot(); st.State != BreakerOpen || st.Opens != 1 {
		t.Fatalf("after %d failures: %+v, want open/1", 2, st)
	}
	if ok, reason := b.admit("c"); ok || !strings.Contains(reason, "open") {
		t.Fatalf("open breaker admitted a job (reason %q)", reason)
	}
	if got := b.retryAfterSeconds(); got != 10 {
		t.Fatalf("retryAfterSeconds = %d, want 10", got)
	}

	// Cooldown elapses: the next request half-opens as the probe; others
	// keep being shed while the probe is out.
	now = now.Add(11 * time.Second)
	if ok, _ := b.admit("probe1"); !ok {
		t.Fatal("cooled-down breaker refused the probe")
	}
	if st := b.snapshot(); st.State != BreakerHalfOpen || st.Probe != "probe1" {
		t.Fatalf("after probe admit: %+v", st)
	}
	if ok, reason := b.admit("d"); ok || !strings.Contains(reason, "probe") {
		t.Fatalf("half-open breaker admitted a second job (reason %q)", reason)
	}

	// Probe failure re-trips; abandon frees the slot without a verdict.
	b.failure("probe1", "still broken")
	if st := b.snapshot(); st.State != BreakerOpen || st.Opens != 2 {
		t.Fatalf("after probe failure: %+v, want open/2", st)
	}
	now = now.Add(11 * time.Second)
	if ok, _ := b.admit("probe2"); !ok {
		t.Fatal("second probe refused")
	}
	b.abandon("probe2")
	if st := b.snapshot(); st.State != BreakerHalfOpen || st.Probe != "" {
		t.Fatalf("after abandon: %+v, want half-open with a free probe slot", st)
	}
	if ok, _ := b.admit("probe3"); !ok {
		t.Fatal("free probe slot refused a new probe")
	}
	b.success("probe3")
	if st := b.snapshot(); st.State != BreakerClosed || st.ConsecutiveFailures != 0 {
		t.Fatalf("after probe success: %+v, want closed", st)
	}

	// Disabled breakers (threshold 0) are nil and admit everything.
	var nb *breaker
	if ok, _ := nb.admit("x"); !ok || nb.degraded() || nb.snapshot() != nil {
		t.Fatal("nil breaker must admit everything and report nothing")
	}
	nb.success("x")
	nb.failure("x", "ignored")
	nb.abandon("x")
}

// TestServeDeadlineTimeoutAndResume: a job whose deadline expires is
// canceled at its next round boundary as timed_out with a message naming
// the deadline; resubmitting the same spec (deadline is not part of the
// identity) re-runs it to a result identical to a never-interrupted run.
func TestServeDeadlineTimeoutAndResume(t *testing.T) {
	all := opt.AllFlags()
	req := subsetReq("BZIP2", all[0:3])
	deadlined := req
	deadlined.DeadlineMS = 1

	s := New(Options{Workers: 1, Jobs: 1, Journal: store.NewMemoryJournal()})
	s.roundGate = make(chan struct{})
	s.Start()
	defer s.Drain()

	res, code, err := s.Submit(deadlined)
	if err != nil || code != 202 {
		t.Fatalf("submit: %d %v", code, err)
	}
	// The tune blocks at its first round poll; by the time we release it
	// the 1ms deadline has long passed, so that poll cancels the job.
	time.Sleep(20 * time.Millisecond)
	s.roundGate <- struct{}{}
	timedOut := waitState(t, s, res.ID, StateTimedOut, 5*time.Second)
	if !strings.Contains(timedOut.Error, "deadline 1ms exceeded") ||
		!strings.Contains(timedOut.Error, "resubmit to resume") {
		t.Fatalf("timed_out error = %q", timedOut.Error)
	}

	// Resubmission without a deadline requeues the same job and runs it to
	// completion (the closed gate lets every later poll pass instantly).
	close(s.roundGate)
	resumed, code, err := s.Submit(req)
	if err != nil || code != 200 {
		t.Fatalf("resubmit: %d %v", code, err)
	}
	if resumed.ID != res.ID {
		t.Fatalf("resubmission created a new job: %s vs %s", resumed.ID, res.ID)
	}
	done := waitState(t, s, res.ID, StateDone, 60*time.Second)

	clean := runAll(t, Options{Workers: 1, Jobs: 1}, []Request{req})
	want, ok := clean[done.Spec]
	if !ok {
		t.Fatalf("spec %s missing from the clean run", done.Spec)
	}
	if done.Report != string(want.report) {
		t.Errorf("report after deadline timeout + resume differs from a clean run:\n--- resumed\n%s\n--- clean\n%s",
			done.Report, want.report)
	}
}

// TestServeWatchdogCancelsStalledJob: a round poll that comes longer than
// WatchdogStall after the job's previous poll (here the first, so after
// the job's start) cancels the job as timed_out with a watchdog message,
// and the stall is counted in /stats. A bound far above round time lets
// the same spec run to done without a stall.
func TestServeWatchdogCancelsStalledJob(t *testing.T) {
	all := opt.AllFlags()
	req := subsetReq("BZIP2", all[3:6])

	s := New(Options{Workers: 1, Jobs: 1, WatchdogStall: 30 * time.Millisecond})
	s.roundGate = make(chan struct{})
	s.Start()
	defer s.Drain()
	defer close(s.roundGate)

	res, code, err := s.Submit(req)
	if err != nil || code != 202 {
		t.Fatalf("submit: %d %v", code, err)
	}
	// The tune blocks on the gate at its first round poll — an artificial
	// stall the poll must see once the gate lets it through.
	waitState(t, s, res.ID, StateRunning, 5*time.Second)
	time.Sleep(100 * time.Millisecond)
	s.roundGate <- struct{}{}
	timedOut := waitState(t, s, res.ID, StateTimedOut, 5*time.Second)
	if !strings.Contains(timedOut.Error, "watchdog: no round progress for 30ms") {
		t.Fatalf("timed_out error = %q", timedOut.Error)
	}
	if got := s.Stats().WatchdogStalls; got != 1 {
		t.Errorf("stats watchdog_stalls = %d, want 1", got)
	}

	calm := New(Options{Workers: 1, Jobs: 1, WatchdogStall: 10 * time.Minute})
	calm.Start()
	defer calm.Drain()
	res, code, err = calm.Submit(req)
	if err != nil || code != 202 {
		t.Fatalf("submit under a far bound: %d %v", code, err)
	}
	waitState(t, calm, res.ID, StateDone, 60*time.Second)
	if got := calm.Stats().WatchdogStalls; got != 0 {
		t.Errorf("stats watchdog_stalls under a far bound = %d, want 0", got)
	}
}

// TestServeBreakerTripsAndServesCached: consecutive poison-job failures
// trip the breaker; new specs are shed with 503 + Retry-After while
// finished results — done and failed alike — keep serving with 200, the
// health endpoint degrades, and /stats exposes the breaker block.
func TestServeBreakerTripsAndServesCached(t *testing.T) {
	all := opt.AllFlags()
	s := New(Options{Workers: 2, Jobs: 1, BreakerFailures: 2, BreakerCooldown: time.Hour})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain()

	good := subsetReq("BZIP2", all[0:2])
	goodRes, code := post(t, ts.URL, good)
	if code != http.StatusAccepted {
		t.Fatalf("good job: status %d", code)
	}
	waitState(t, s, goodRes.ID, StateDone, 60*time.Second)

	// Two distinct poison jobs fail deterministically back to back.
	poison := make([]Request, 2)
	for i := range poison {
		poison[i] = subsetReq("BZIP2", all[2+i:3+i])
		poison[i].Faults = "poison"
		res, code := post(t, ts.URL, poison[i])
		if code != http.StatusAccepted {
			t.Fatalf("poison job %d: status %d (%s)", i, code, res.Error)
		}
		deadline := time.Now().Add(60 * time.Second)
		for {
			snap, _ := s.Job(res.ID)
			if snap.State == StateFailed {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("poison job %d stuck in %s", i, snap.State)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	st := s.Stats()
	if st.Breaker == nil || st.Breaker.State != BreakerOpen || st.Breaker.Opens != 1 {
		t.Fatalf("breaker after 2 failures = %+v, want open", st.Breaker)
	}
	var hz map[string]any
	if err := json.Unmarshal(get(t, ts.URL+"/healthz", http.StatusOK), &hz); err != nil {
		t.Fatal(err)
	}
	if hz["status"] != "degraded" || hz["breaker"] != BreakerOpen {
		t.Errorf("healthz while open = %v", hz)
	}

	// New work is shed with 503 and the breaker's remaining cooldown.
	fresh := subsetReq("BZIP2", all[6:7])
	body, _ := json.Marshal(fresh)
	resp, err := http.Post(ts.URL+"/tune", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("new spec while open: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 while open carries no Retry-After")
	}

	// Known specs keep serving: the done job's result and even the failed
	// poison job's state are answered before admission control.
	if _, code := post(t, ts.URL, good); code != http.StatusOK {
		t.Fatalf("duplicate of a done spec while open: status %d, want 200", code)
	}
	if res, code := post(t, ts.URL, poison[0]); code != http.StatusOK || res.State != StateFailed {
		t.Fatalf("duplicate of a failed spec while open: status %d state %s, want 200 failed", code, res.State)
	}
}

// TestServeBreakerProbeCloses: after the cooldown, one healthy probe job
// closes the breaker again.
func TestServeBreakerProbeCloses(t *testing.T) {
	all := opt.AllFlags()
	s := New(Options{Workers: 2, Jobs: 1, BreakerFailures: 1, BreakerCooldown: 50 * time.Millisecond})
	s.Start()
	defer s.Drain()

	poison := subsetReq("BZIP2", all[8:9])
	poison.Faults = "poison"
	res, code, err := s.Submit(poison)
	if err != nil || code != 202 {
		t.Fatalf("poison submit: %d %v", code, err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		snap, _ := s.Job(res.ID)
		if snap.State == StateFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("poison job stuck in %s", snap.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := s.Stats().Breaker; st.State != BreakerOpen {
		t.Fatalf("breaker after poison = %+v, want open", st)
	}

	time.Sleep(80 * time.Millisecond) // cooldown elapses
	probe := subsetReq("BZIP2", all[9:10])
	pres, code, err := s.Submit(probe)
	if err != nil || code != 202 {
		t.Fatalf("probe submit after cooldown: %d %v", code, err)
	}
	waitState(t, s, pres.ID, StateDone, 60*time.Second)
	if st := s.Stats().Breaker; st.State != BreakerClosed {
		t.Fatalf("breaker after probe success = %+v, want closed", st)
	}
}

// TestServeQuarantineStormTripsBreaker: a job that *completes* but
// quarantines a storm of miscompiled flags counts as a breaker failure —
// the job's own result still serves.
func TestServeQuarantineStormTripsBreaker(t *testing.T) {
	all := opt.AllFlags()
	req := subsetReq("ART", all[0:6])
	req.Faults = "storm"

	s := New(Options{Workers: 2, Jobs: 1,
		BreakerFailures: 1, BreakerCooldown: time.Hour, QuarantineStorm: 3})
	s.Start()
	defer s.Drain()

	res, code, err := s.Submit(req)
	if err != nil || code != 202 {
		t.Fatalf("submit: %d %v", code, err)
	}
	done := waitState(t, s, res.ID, StateDone, 120*time.Second)
	if done.Result == nil || len(done.Result.Quarantined) < 3 {
		t.Fatalf("storm regime quarantined %v, want >= 3 flags", done.Result)
	}
	st := s.Stats().Breaker
	if st == nil || st.State != BreakerOpen {
		t.Fatalf("breaker after quarantine storm = %+v, want open", st)
	}
	if !strings.Contains(st.LastFailure, "quarantine storm") {
		t.Errorf("breaker last_failure = %q, want a quarantine-storm message", st.LastFailure)
	}
}

// TestServeConcurrentDrainResumeSharedJournal: two jobs in flight on one
// file journal, drained mid-tune after at least one completed round, then
// resumed on a fresh server that reopens the same journal file (CRC
// verification of every record on the way in) — both results must be
// byte-identical to a never-interrupted run.
func TestServeConcurrentDrainResumeSharedJournal(t *testing.T) {
	all := opt.AllFlags()
	reqs := []Request{subsetReq("BZIP2", all[0:3]), subsetReq("BZIP2", all[3:6])}
	path := filepath.Join(t.TempDir(), store.JournalFile)
	j, err := store.NewJournal(path)
	if err != nil {
		t.Fatal(err)
	}

	s := New(Options{Workers: 2, Jobs: 2, Journal: j})
	s.roundGate = make(chan struct{})
	s.Start()
	for i, req := range reqs {
		if _, code, err := s.Submit(req); err != nil || code != 202 {
			t.Fatalf("submit %d: %d %v", i, code, err)
		}
	}
	// Release two round polls (each blocking send synchronizes with one
	// poll), then wait until at least one round has been checkpointed.
	for i := 0; i < 2; i++ {
		select {
		case s.roundGate <- struct{}{}:
		case <-time.After(30 * time.Second):
			t.Fatal("no tune reached a round poll")
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for j.Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no round was checkpointed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Drain while both tunes sit at (or head toward) a round poll.
	drained := make(chan []Result)
	go func() { drained <- s.Drain() }()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	close(s.roundGate)
	<-drained
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": reopen the journal file — every surviving record passes
	// its CRC — and run both specs to completion on a fresh server.
	j2, err := store.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := j2.Recovery()
	if rec.DroppedBytes != 0 || rec.Records == 0 {
		t.Fatalf("journal recovery after graceful drain = %+v, want intact records", rec)
	}
	resumed := runAll(t, Options{Workers: 2, Jobs: 2, Journal: j2}, reqs)
	clean := runAll(t, Options{Workers: 2, Jobs: 2}, reqs)
	if len(resumed) != len(reqs) {
		t.Fatalf("resumed %d jobs, want %d", len(resumed), len(reqs))
	}
	for spec, r := range resumed {
		c, ok := clean[spec]
		if !ok {
			t.Fatalf("spec %s missing from the clean run", spec)
		}
		if !bytes.Equal(r.body, c.body) {
			t.Errorf("spec %s: resumed result differs from a clean run:\n--- resumed\n%s\n--- clean\n%s",
				spec, r.body, c.body)
		}
		if !bytes.Equal(r.report, c.report) {
			t.Errorf("spec %s: resumed report differs from a clean run", spec)
		}
	}
}
