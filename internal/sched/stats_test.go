package sched

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStatsDegenerateInputs pins the edge cases the serve /stats endpoint
// hits on a fresh or misconfigured pool: an empty pool (no job ever
// completed, Wall()==0) and nonsensical worker counts must yield clamped,
// finite figures — never NaN, ±Inf, or a negative utilization.
func TestStatsDegenerateInputs(t *testing.T) {
	busy := &Stats{}
	busy.enqueue(1)
	busy.run(func(int) { time.Sleep(2 * time.Millisecond) }, 0)

	cases := []struct {
		name    string
		stats   *Stats
		workers int
		want    float64 // exact expected utilization, -1 = "in (0, 1]"
	}{
		{"empty pool, one worker", &Stats{}, 1, 0},
		{"empty pool, zero workers", &Stats{}, 0, 0},
		{"empty pool, negative workers", &Stats{}, -3, 0},
		{"busy pool, zero workers", busy, 0, 0},
		{"busy pool, negative workers", busy, -1, 0},
		{"busy pool, one worker", busy, 1, -1},
	}
	for _, tc := range cases {
		u := tc.stats.Utilization(tc.workers)
		if u != u || u < 0 || u > 1 {
			t.Errorf("%s: Utilization(%d) = %v, want a value in [0, 1]", tc.name, tc.workers, u)
		}
		if tc.want >= 0 && u != tc.want {
			t.Errorf("%s: Utilization(%d) = %v, want %v", tc.name, tc.workers, u, tc.want)
		}
		if tc.want == -1 && u == 0 {
			t.Errorf("%s: Utilization(%d) = 0, want > 0", tc.name, tc.workers)
		}
	}
}

// TestStatsUtilizationClamped checks the upper clamp: accounting skew
// (busy time summed over workers vs a latched wall window) must never
// push the reported utilization past 1.
func TestStatsUtilizationClamped(t *testing.T) {
	s := &Stats{}
	s.enqueue(1)
	s.run(func(int) { time.Sleep(time.Millisecond) }, 0)
	// Inflate busy time past wall × workers to simulate the skew.
	s.busyNanos.Add(s.Wall().Nanoseconds() * 10)
	if u := s.Utilization(1); u != 1 {
		t.Fatalf("Utilization with inflated busy time = %v, want clamp to 1", u)
	}
}

// TestStatsSummaryDegenerate checks Summary never renders NaN and clamps
// a negative worker count.
func TestStatsSummaryDegenerate(t *testing.T) {
	for _, workers := range []int{-2, 0, 1} {
		line := (&Stats{}).Summary(workers)
		if strings.Contains(line, "NaN") || strings.Contains(line, "-Inf") || strings.Contains(line, "+Inf") {
			t.Errorf("Summary(%d) contains a non-finite number: %s", workers, line)
		}
		if strings.Contains(line, "-2 worker") {
			t.Errorf("Summary(%d) renders a negative worker count: %s", workers, line)
		}
		if !strings.Contains(line, "utilization 0%") {
			t.Errorf("Summary(%d) on an empty pool should report utilization 0%%: %s", workers, line)
		}
	}
}

// TestWallLatchConcurrentMaps is the two-caller regression test for the
// wall-time latch: while any job runs, the pool has work in flight, so
// Wall must not be latched. Before the latch and its clear were ordered,
// one Map's last completion could latch after a concurrent Map had queued
// its jobs and cleared the latch, freezing Wall (and pinning the serve
// /stats utilization at its clamp) until that Map drained.
func TestWallLatchConcurrentMaps(t *testing.T) {
	for _, workers := range []int{1, 2} {
		p := New(workers)
		st := p.Stats()
		var frozen atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20000; i++ {
					p.Map(1, func(int) {
						if st.endNanos.Load() != 0 {
							frozen.Add(1)
						}
					})
				}
			}()
		}
		wg.Wait()
		if n := frozen.Load(); n > 0 {
			t.Errorf("workers=%d: %d jobs ran with Wall latched", workers, n)
		}
		if st.endNanos.Load() == 0 {
			t.Errorf("workers=%d: Wall not latched after both callers drained", workers)
		}
	}
}
