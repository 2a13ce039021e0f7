package cache

import (
	"math"
	"testing"
	"testing/quick"

	"peak/internal/machine"
)

func newTestHierarchy() *Hierarchy {
	m := machine.SPARCII()
	return NewHierarchy(m)
}

func TestColdMissWarmHit(t *testing.T) {
	h := newTestHierarchy()
	m := machine.SPARCII()
	miss := h.Access(0x1000)
	if miss != m.L1.HitLatency+m.L2.HitLatency+m.MemLatency {
		t.Errorf("cold access latency = %d, want full miss %d",
			miss, m.L1.HitLatency+m.L2.HitLatency+m.MemLatency)
	}
	hit := h.Access(0x1000)
	if hit != m.L1.HitLatency {
		t.Errorf("warm access latency = %d, want L1 hit %d", hit, m.L1.HitLatency)
	}
	// Same line, different word.
	hit2 := h.Access(0x1008)
	if hit2 != m.L1.HitLatency {
		t.Errorf("same-line access latency = %d, want L1 hit", hit2)
	}
}

func TestL2BackstopAfterL1Eviction(t *testing.T) {
	h := newTestHierarchy()
	m := machine.SPARCII()
	// SPARC L1 is 16KB direct-mapped with 32B lines: two addresses 16KB
	// apart conflict in L1 but coexist in the 4-way 512KB L2.
	a, b := uint64(0x10000), uint64(0x10000+16<<10)
	h.Access(a)
	h.Access(b) // evicts a from L1
	lat := h.Access(a)
	if lat != m.L1.HitLatency+m.L2.HitLatency {
		t.Errorf("L1-conflict access latency = %d, want L2 hit %d",
			lat, m.L1.HitLatency+m.L2.HitLatency)
	}
}

func TestResetClearsState(t *testing.T) {
	h := newTestHierarchy()
	h.Access(0x40)
	if hits, misses, _, _ := h.Stats(); hits != 0 || misses != 1 {
		t.Fatalf("stats after one access: %d/%d", hits, misses)
	}
	h.Reset()
	if hits, misses, _, _ := h.Stats(); hits != 0 || misses != 0 {
		t.Error("Reset did not clear stats")
	}
	m := machine.SPARCII()
	if lat := h.Access(0x40); lat != m.L1.HitLatency+m.L2.HitLatency+m.MemLatency {
		t.Error("Reset did not invalidate lines")
	}
}

func TestLRUWithinSet(t *testing.T) {
	// Build a tiny 2-way cache and exercise LRU: A, B, C (same set) — C
	// evicts A (least recently used), so B must still hit.
	g := machine.CacheGeometry{SizeBytes: 4 * 64, LineBytes: 64, Assoc: 2, HitLatency: 1}
	l := newLevel(g)
	setStride := uint64(g.LineBytes * l.numSets)
	a, b, c := uint64(0), setStride, 2*setStride
	l.access(a)
	l.access(b)
	l.access(a) // refresh a
	l.access(c) // evicts b (LRU)
	if !l.access(a) {
		t.Error("a should still be resident")
	}
	if l.access(b) {
		t.Error("b should have been evicted")
	}
}

// Regression test for the LRU tick width: with a uint32 tick, crossing
// 2^32 accesses wrapped the counter to 0, so every *newer* access stamped a
// smaller lru value than the resident lines and the most-recently-used line
// became the eviction victim. The tick is uint64 now; this test pins the
// counter just below the old 32-bit boundary on a tiny 2-way cache and
// checks that recency ordering survives crossing it.
func TestLRUTickWraparound(t *testing.T) {
	g := machine.CacheGeometry{SizeBytes: 4 * 64, LineBytes: 64, Assoc: 2, HitLatency: 1}
	l := newLevel(g)
	setStride := uint64(g.LineBytes * l.numSets)
	a, b, c := uint64(0), setStride, 2*setStride

	l.tick = math.MaxUint32 - 1
	l.access(a) // tick = MaxUint32
	l.access(b) // tick = MaxUint32 + 1: wrapped to 0 under uint32
	if l.tick != uint64(math.MaxUint32)+1 {
		t.Fatalf("tick = %d, want %d (no wrap)", l.tick, uint64(math.MaxUint32)+1)
	}
	// b's slot, which the level's MRU hint now names, holds the full stamp.
	if got := l.lines[l.last].lru; l.last == 0 || got != l.tick {
		t.Fatalf("MRU slot %d stamped %d, want %d", l.last, got, l.tick)
	}
	// a is the least recently used line, so c must evict a — under the
	// wrapped 32-bit tick, b (lru stamp 0) was the false victim.
	l.access(c)
	if !l.access(b) {
		t.Error("b should still be resident after crossing the 32-bit boundary")
	}
	if l.access(a) {
		t.Error("a should have been evicted as the true LRU line")
	}
}

// Property: hit/miss accounting is consistent and repeated access to a
// bounded working set eventually always hits.
func TestQuickAccountingConsistent(t *testing.T) {
	f := func(seed int64) bool {
		h := newTestHierarchy()
		addrs := make([]uint64, 16)
		s := uint64(seed)
		for i := range addrs {
			s = s*6364136223846793005 + 1442695040888963407
			addrs[i] = s % (8 << 10)
		}
		var accesses int64
		for round := 0; round < 4; round++ {
			for _, a := range addrs {
				h.Access(a)
				accesses++
			}
		}
		h1, m1, _, _ := h.Stats()
		if h1+m1 != accesses {
			return false
		}
		// Final round over a 8KB working set must be all L1 hits.
		for _, a := range addrs {
			m := machine.SPARCII()
			if h.Access(a) != m.L1.HitLatency {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
