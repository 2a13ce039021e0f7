package sched

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p := New(workers)
		const n = 1000
		hits := make([]int32, n)
		p.Map(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times, want 1", workers, i, h)
			}
		}
		st := p.Stats()
		if st.JobsQueued.Load() != n || st.JobsDone.Load() != n || st.JobsRunning.Load() != 0 {
			t.Errorf("workers=%d: stats %d/%d/%d, want %d/0/%d",
				workers, st.JobsQueued.Load(), st.JobsRunning.Load(), st.JobsDone.Load(), n, n)
		}
	}
}

func TestSerialRunsInIndexOrder(t *testing.T) {
	p := NewSerial()
	var order []int
	p.Map(64, func(i int) { order = append(order, i) })
	for i, got := range order {
		if got != i {
			t.Fatalf("serial order[%d] = %d", i, got)
		}
	}
}

// TestNestedMapDoesNotDeadlock exercises the coarse-over-fine shape the
// experiments use: outer jobs each fan out an inner Map on the same pool.
func TestNestedMapDoesNotDeadlock(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		p := New(workers)
		var total atomic.Int64
		done := make(chan struct{})
		go func() {
			defer close(done)
			p.Map(6, func(i int) {
				p.Map(17, func(j int) { total.Add(1) })
			})
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: nested Map deadlocked", workers)
		}
		if total.Load() != 6*17 {
			t.Fatalf("workers=%d: inner jobs = %d, want %d", workers, total.Load(), 6*17)
		}
	}
}

func TestMapResultsIndependentOfWorkerCount(t *testing.T) {
	// A toy deterministic computation: each job's output is a pure
	// function of its derived seed. Any worker count must agree.
	compute := func(workers int) []int64 {
		p := New(workers)
		out := make([]int64, 100)
		p.Map(len(out), func(i int) {
			s := DeriveSeed(2004, "job/"+string(rune('a'+i%26))+"/"+itoa(i))
			out[i] = s*3 + int64(i)
		})
		return out
	}
	ref := compute(1)
	for _, w := range []int{2, 8} {
		got := compute(w)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", w, i, got[i], ref[i])
			}
		}
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestDeriveSeed(t *testing.T) {
	// Stable across calls.
	if DeriveSeed(1, "a") != DeriveSeed(1, "a") {
		t.Error("DeriveSeed not stable")
	}
	// Sensitive to root, key, and near-identical keys.
	seen := map[int64]string{}
	for _, tc := range []struct {
		root int64
		key  string
	}{
		{1, "a"}, {2, "a"}, {1, "b"}, {1, "ab"}, {1, "ba"},
		{1, "round=1/flag=gcse"}, {1, "round=2/flag=gcse"}, {1, "round=1/flag=gcse2"},
	} {
		s := DeriveSeed(tc.root, tc.key)
		if prev, dup := seen[s]; dup {
			t.Errorf("collision: (%d,%q) and %s -> %d", tc.root, tc.key, prev, s)
		}
		seen[s] = tc.key
	}
}

func TestWorkersAndNewDefaults(t *testing.T) {
	if w := New(0).Workers(); w < 1 {
		t.Errorf("New(0).Workers() = %d", w)
	}
	if _, ok := New(1).(*Serial); !ok {
		t.Error("New(1) must be the serial pool")
	}
	if w := New(4).Workers(); w != 4 {
		t.Errorf("New(4).Workers() = %d", w)
	}
}

func TestStatsCyclesAndSummary(t *testing.T) {
	p := New(2)
	p.Map(10, func(i int) { p.Stats().AddCycles(100) })
	if c := p.Stats().Cycles.Load(); c != 1000 {
		t.Errorf("cycles = %d, want 1000", c)
	}
	sum := p.Stats().Summary(p.Workers())
	for _, want := range []string{"10 jobs", "2 worker", "utilization"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary %q missing %q", sum, want)
		}
	}
}

// TestWallLatchesAfterLastJob: Wall must measure first-job-start to
// last-job-completion, not to whenever the caller happens to ask. Before
// the latch, a sleep between pool completion and Summary inflated the wall
// figure and deflated utilization.
func TestWallLatchesAfterLastJob(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(workers)
		p.Map(8, func(i int) { time.Sleep(2 * time.Millisecond) })
		wall := p.Stats().Wall()
		if wall <= 0 {
			t.Fatalf("workers=%d: wall = %v after Map", workers, wall)
		}
		time.Sleep(60 * time.Millisecond)
		if got := p.Stats().Wall(); got != wall {
			t.Errorf("workers=%d: wall grew while idle: %v -> %v", workers, wall, got)
		}
		sum := p.Stats().Summary(p.Workers())
		time.Sleep(60 * time.Millisecond)
		if again := p.Stats().Summary(p.Workers()); again != sum {
			t.Errorf("workers=%d: Summary unstable while idle:\n%s\n%s", workers, sum, again)
		}

		// A new batch re-opens the window: Wall must grow past the latch.
		p.Map(4, func(i int) { time.Sleep(2 * time.Millisecond) })
		if got := p.Stats().Wall(); got <= wall {
			t.Errorf("workers=%d: wall did not resume after new Map: %v <= %v", workers, got, wall)
		}
	}
}

func TestStartProgressEmitsAndStops(t *testing.T) {
	p := New(2)
	var buf bytes.Buffer
	stop := StartProgress(&buf, p, 10*time.Millisecond)
	p.Map(4, func(i int) { time.Sleep(30 * time.Millisecond) })
	stop()
	if !strings.Contains(buf.String(), "jobs") {
		t.Errorf("no progress emitted: %q", buf.String())
	}
	n := buf.Len()
	time.Sleep(30 * time.Millisecond)
	if buf.Len() != n {
		t.Error("progress kept emitting after stop")
	}
}

// A panicking job must not take down the process: the pool recovers it,
// counts it, keeps Wall latching correct, and completes the batch.
func TestJobPanicIsolated(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(workers)
		done := make([]bool, 16)
		p.Map(16, func(i int) {
			if i%5 == 2 {
				panic(fmt.Sprintf("boom %d", i))
			}
			done[i] = true
		})
		for i := range done {
			if want := i%5 != 2; done[i] != want {
				t.Errorf("workers=%d: job %d done=%v, want %v", workers, i, done[i], want)
			}
		}
		st := p.Stats()
		if got := st.JobPanics.Load(); got != 3 {
			t.Errorf("workers=%d: JobPanics = %d, want 3", workers, got)
		}
		if st.FirstPanic() == "" || !strings.Contains(st.FirstPanic(), "boom") {
			t.Errorf("workers=%d: FirstPanic = %q", workers, st.FirstPanic())
		}
		if got, want := st.JobsDone.Load(), st.JobsQueued.Load(); got != want {
			t.Errorf("workers=%d: JobsDone %d != JobsQueued %d after panics", workers, got, want)
		}
		// Wall must latch: panicked jobs still count as completed.
		wall := st.Wall()
		time.Sleep(30 * time.Millisecond)
		if got := st.Wall(); got != wall {
			t.Errorf("workers=%d: wall grew while idle after panics: %v -> %v", workers, wall, got)
		}
		if !strings.Contains(st.Summary(workers), "3 job panic(s)") {
			t.Errorf("workers=%d: Summary missing panic count: %s", workers, st.Summary(workers))
		}
	}
}

// laneProbe instruments a parallel pool's items: it counts the items in
// flight and checks, at every item start, that they fit the lane budget
// plus the lanes of helpers that are yielding (a helper over budget
// finishes its in-flight item before handing its lane back). Start and
// finish share a mutex so a helper's finish-then-yield can never slip
// between a start's count and its bound.
type laneProbe struct {
	p          *parallel
	mu         sync.Mutex
	cur, peak  int
	violations []string
}

func (lp *laneProbe) start() {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	lp.cur++
	lp.peak = max(lp.peak, lp.cur)
	if bound := lp.p.workers + max(lp.p.over(lp.p.lent.Load()), 0); lp.cur > bound {
		lp.violations = append(lp.violations, fmt.Sprintf("%d items in flight, bound %d", lp.cur, bound))
	}
}

func (lp *laneProbe) finish() {
	lp.mu.Lock()
	lp.cur--
	lp.mu.Unlock()
}

// TestLanesBoundConcurrency: two holders running Maps — some of whose
// items nest a Map of their own — never run more items at once than the
// lane budget, except for one in-flight item per yielding helper; with
// two holders on four lanes that is at most one item over.
func TestLanesBoundConcurrency(t *testing.T) {
	const lanes = 4
	p := New(lanes).(*parallel)
	lp := &laneProbe{p: p}
	item := func() {
		lp.start()
		time.Sleep(50 * time.Microsecond)
		lp.finish()
	}
	var wg sync.WaitGroup
	for h := 0; h < 2; h++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 40; round++ {
				release := p.Hold()
				p.Map(9, func(i int) {
					item()
					if i%4 == 0 {
						p.Map(3, func(int) { item() })
					}
				})
				release()
			}
		}()
	}
	wg.Wait()
	for _, v := range lp.violations {
		t.Error(v)
	}
	if lp.peak > lanes+1 {
		t.Errorf("peak %d items in flight, want at most %d", lp.peak, lanes+1)
	}
	if st := p.lent.Load(); st != 0 {
		t.Errorf("lanes still lent after every Map and holder finished: %#x", st)
	}
}

// fillLanes runs a Map of n items on p whose first `lanes` items wait
// until they all run at once — proof that lanes-1 helpers joined the
// caller — and returns the helpers the Map started.
func fillLanes(t *testing.T, p *parallel, n, want int) int64 {
	t.Helper()
	before := p.stats.Helpers.Load()
	var in atomic.Int64
	all := make(chan struct{})
	p.Map(n, func(i int) {
		if i >= want {
			return
		}
		if in.Add(1) == int64(want) {
			close(all)
		}
		select {
		case <-all:
		case <-time.After(10 * time.Second):
			t.Errorf("only %d of %d items ran at once", in.Load(), want)
		}
	})
	return p.stats.Helpers.Load() - before
}

// TestLoneHolderBorrowsIdleLanes: a Map called by the only holder gets
// lanes-1 helpers; with a second holder it gets one fewer; a caller that
// holds no lane gets lanes-1 helpers as before lanes existed.
func TestLoneHolderBorrowsIdleLanes(t *testing.T) {
	const lanes = 4
	p := New(lanes).(*parallel)
	if got := fillLanes(t, p, 8, lanes); got != lanes-1 {
		t.Errorf("non-holder Map started %d helpers, want %d", got, lanes-1)
	}
	release := p.Hold()
	if got := fillLanes(t, p, 8, lanes); got != lanes-1 {
		t.Errorf("lone holder's Map started %d helpers, want %d", got, lanes-1)
	}
	other := p.Hold()
	if got := fillLanes(t, p, 8, lanes-1); got != lanes-2 {
		t.Errorf("Map beside a second holder started %d helpers, want %d", got, lanes-2)
	}
	other()
	release()
	if st := p.lent.Load(); st != 0 {
		t.Errorf("lanes still lent: %#x", st)
	}
}

// TestHelperYieldsReclaimedLane: a helper borrowing the idle lane of a
// two-lane pool hands it back at its next item boundary once a second
// holder claims it — every later item of the Map runs on the caller
// alone — and the Map still covers every index.
func TestHelperYieldsReclaimedLane(t *testing.T) {
	p := New(2).(*parallel)
	release := p.Hold()
	defer release()

	var in, late, latePeak atomic.Int64
	both := make(chan struct{})
	reclaimed := make(chan struct{})
	ran := make([]int32, 12)
	mapped := make(chan struct{})
	holderDone := make(chan struct{})
	go func() {
		defer close(holderDone)
		<-both
		other := p.Hold()
		close(reclaimed)
		<-mapped
		other()
	}()
	p.Map(len(ran), func(i int) {
		atomic.AddInt32(&ran[i], 1)
		if i < 2 {
			// Items 0 and 1 run together: the caller and the helper.
			if in.Add(1) == 2 {
				close(both)
			}
			<-reclaimed
			return
		}
		cur := late.Add(1)
		for {
			peak := latePeak.Load()
			if cur <= peak || latePeak.CompareAndSwap(peak, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		late.Add(-1)
	})
	close(mapped)
	<-holderDone
	for i, n := range ran {
		if n != 1 {
			t.Errorf("item %d ran %d times, want 1", i, n)
		}
	}
	if got := p.stats.Helpers.Load(); got != 1 {
		t.Errorf("helpers started = %d, want 1", got)
	}
	if got := latePeak.Load(); got != 1 {
		t.Errorf("%d items ran at once after the lane was reclaimed, want 1", got)
	}
}

// TestSerialHoldIsNoop: holding a Serial pool's lane changes nothing —
// Map still runs in index order on the caller.
func TestSerialHoldIsNoop(t *testing.T) {
	p := NewSerial()
	release := p.Hold()
	defer release()
	var order []int
	p.Map(16, func(i int) { order = append(order, i) })
	for i, got := range order {
		if got != i {
			t.Fatalf("serial order[%d] = %d under Hold", i, got)
		}
	}
	if p.Stats().Helpers.Load() != 0 {
		t.Error("a serial pool started helpers")
	}
}

// TestFreedLaneJoinsOpenMap: holder A's Map starts while holder B fills
// the other lane of a two-lane pool, so it starts no helper. B releases
// during the Map's first item, and its lane joins the Map: item 1 runs
// while item 0 is still running on the caller. Results come back in
// index order.
func TestFreedLaneJoinsOpenMap(t *testing.T) {
	p := New(2).(*parallel)
	releaseA := p.Hold()
	defer releaseA()
	releaseB := p.Hold()

	const n = 16
	out := make([]int, n)
	joined := make(chan struct{})
	p.Map(n, func(i int) {
		switch i {
		case 0:
			if got := p.stats.Helpers.Load(); got != 0 {
				t.Errorf("Map started %d helpers with no free lane", got)
			}
			releaseB()
			select {
			case <-joined:
			case <-time.After(10 * time.Second):
				t.Error("no helper joined after the lane freed")
			}
		case 1:
			close(joined)
		}
		out[i] = i * i
	})
	for i, v := range out {
		if v != i*i {
			t.Errorf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
	if got := p.stats.LateHelpers.Load(); got != 1 {
		t.Errorf("late helpers = %d, want 1", got)
	}
	if got := p.stats.Helpers.Load(); got != 1 {
		t.Errorf("helpers = %d, want 1 (late helpers count as helpers)", got)
	}
	waitLent(t, p, heldUnit)
}

// TestIdleHelperJoinsOpenMap: on a three-lane pool with two holders, A's
// Map takes the one free lane for its helper, so B's Map starts with
// none. When A's helper runs out of items it carries the lane to B's Map
// instead of returning it: B's item 1 runs while item 0 is still running
// on B's caller.
func TestIdleHelperJoinsOpenMap(t *testing.T) {
	p := New(3).(*parallel)
	releaseA, releaseB := p.Hold(), p.Hold()
	defer releaseA()
	defer releaseB()

	aStarted, bStarted, joined := make(chan struct{}), make(chan struct{}), make(chan struct{})
	wait := func(ch chan struct{}, what string) {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Error(what)
		}
	}
	var bDone sync.WaitGroup
	bDone.Add(1)
	go func() {
		defer bDone.Done()
		<-aStarted
		p.Map(8, func(i int) {
			switch i {
			case 0:
				close(bStarted)
				wait(joined, "A's helper never joined B's Map")
			case 1:
				close(joined)
			}
		})
	}()
	// Both of A's items wait for B's Map, so the caller runs one and the
	// helper the other.
	var once sync.Once
	p.Map(2, func(int) {
		once.Do(func() { close(aStarted) })
		wait(bStarted, "B's Map never started")
	})
	bDone.Wait()
	if got := p.stats.Helpers.Load(); got != 2 {
		t.Errorf("helpers = %d, want 2 (A's helper, then its join of B's Map)", got)
	}
	if got := p.stats.LateHelpers.Load(); got != 1 {
		t.Errorf("late helpers = %d, want 1", got)
	}
	waitLent(t, p, 2*heldUnit)
}

// TestMapRetainsNothingAfterReturn: once Map returns, the pool holds no
// reference to it — neither its batch in the open list's backing array
// nor, through it, the job closure and whatever the closure captured.
func TestMapRetainsNothingAfterReturn(t *testing.T) {
	p := New(2).(*parallel)
	defer runtime.KeepAlive(p) // the pool itself must stay reachable
	release := p.Hold()
	freed := make(chan struct{})
	func() {
		payload := new([1 << 16]byte)
		runtime.SetFinalizer(payload, func(*[1 << 16]byte) { close(freed) })
		p.Map(8, func(i int) { payload[i]++ })
		p.Map(4, func(i int) {
			p.Map(3, func(j int) { payload[4*i+j]++ })
		})
	}()
	release()
	waitLent(t, p, 0)

	p.mu.Lock()
	if len(p.open) != 0 {
		t.Errorf("%d Maps still open", len(p.open))
	}
	for i, b := range p.open[:cap(p.open)] {
		if b != nil {
			t.Errorf("open list slot %d still references a finished Map", i)
		}
	}
	p.mu.Unlock()
	for try := 0; ; try++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if try == 100 {
			t.Fatal("a finished Map's closure is still reachable from the pool")
		}
	}
}

// waitLent waits until every helper has handed its lane back, leaving
// the lane word at want.
func waitLent(t *testing.T, p *parallel, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for p.lent.Load() != want {
		if time.Now().After(deadline) {
			t.Fatalf("lane word = %#x, want %#x", p.lent.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}
