package cache

import (
	"math/rand"
	"testing"

	"peak/internal/machine"
)

// refLevel is a naive LRU cache level, the reference for FuzzCacheLRU:
// each set is a slice of line addresses ordered most- to least-recently
// used, so hit, miss and victim choice follow from the definition of LRU
// with no stamps, hints or slot layout.
type refLevel struct {
	sets         [][]uint64
	assoc        int
	lineBytes    uint64
	hits, misses int64
}

func newRefLevel(g machine.CacheGeometry) *refLevel {
	numSets := g.SizeBytes / (g.LineBytes * g.Assoc)
	if numSets < 1 {
		numSets = 1
	}
	return &refLevel{sets: make([][]uint64, numSets), assoc: g.Assoc, lineBytes: uint64(g.LineBytes)}
}

// access reports a hit, installing addr's line as most recently used
// either way.
func (l *refLevel) access(addr uint64) bool {
	la := addr / l.lineBytes
	s := la % uint64(len(l.sets))
	set := l.sets[s]
	for i, x := range set {
		if x == la {
			copy(set[1:i+1], set[:i])
			set[0] = la
			l.hits++
			return true
		}
	}
	l.misses++
	if len(set) < l.assoc {
		set = append(set, 0)
	}
	copy(set[1:], set)
	set[0] = la
	l.sets[s] = set
	return false
}

// refHierarchy consults L2 only on an L1 miss, like Hierarchy.
type refHierarchy struct {
	l1, l2 *refLevel
	m      *machine.Machine
}

func newRefHierarchy(m *machine.Machine) *refHierarchy {
	return &refHierarchy{l1: newRefLevel(m.L1), l2: newRefLevel(m.L2), m: m}
}

func (h *refHierarchy) access(addr uint64) int64 {
	if h.l1.access(addr) {
		return h.m.L1.HitLatency
	}
	if h.l2.access(addr) {
		return h.m.L1.HitLatency + h.m.L2.HitLatency
	}
	return h.m.L1.HitLatency + h.m.L2.HitLatency + h.m.MemLatency
}

// fuzzMachines lists the hierarchies FuzzCacheLRU draws from: both real
// machines first, then synthetic ones over associativity 1, 2, 4 and 8 and
// power-of-two and other set counts.
func fuzzMachines() []*machine.Machine {
	ms := []*machine.Machine{machine.SPARCII(), machine.PentiumIV()}
	for _, assoc := range []int{1, 2, 4, 8} {
		for _, sets := range []int{1, 2, 3, 4, 5, 6, 7, 16} {
			l2Assoc := min(2*assoc, 8)
			ms = append(ms, &machine.Machine{
				L1:         machine.CacheGeometry{SizeBytes: sets * assoc * 32, LineBytes: 32, Assoc: assoc, HitLatency: 1},
				L2:         machine.CacheGeometry{SizeBytes: (2*sets + 1) * l2Assoc * 64, LineBytes: 64, Assoc: l2Assoc, HitLatency: 6},
				MemLatency: 30,
			})
		}
	}
	return ms
}

// FuzzCacheLRU drives a Hierarchy the way the engines do — plain Access
// calls, AccessLine/AccessMiss pairs over several per-site hints, and
// Reset mid-stream, which leaves the hints stale — and requires every
// access's latency and the final Stats to equal the naive LRU reference.
// seed picks the address stream and geom the hierarchy (fuzzMachines).
// The committed corpus (testdata/fuzz/FuzzCacheLRU) pins conflict
// eviction, a hint to an evicted slot, a stale hint after Reset and a set
// count that is not a power of two.
func FuzzCacheLRU(f *testing.F) {
	ms := fuzzMachines()
	f.Fuzz(func(t *testing.T, seed int64, geom byte) {
		m := ms[int(geom)%len(ms)]
		h, ref := NewHierarchy(m), newRefHierarchy(m)
		rng := rand.New(rand.NewSource(seed))

		// A small pool of lines crowded into a few sets of each level, so
		// the stream conflicts, evicts and re-touches evicted lines.
		var pool []uint64
		for _, g := range []machine.CacheGeometry{m.L1, m.L2} {
			stride := uint64(g.SizeBytes / g.Assoc) // same set, next tag
			for range 3 * g.Assoc {
				set := uint64(rng.Intn(3)) * uint64(g.LineBytes)
				pool = append(pool, set+uint64(rng.Intn(2*g.Assoc+1))*stride)
			}
		}
		var hints [4]Hint
		for step := range 600 {
			addr := pool[rng.Intn(len(pool))] + uint64(rng.Intn(m.L1.LineBytes))
			var lat int64
			switch op := rng.Intn(40); {
			case op == 0:
				h.Reset()
				ref = newRefHierarchy(m)
				continue
			case op < 14:
				lat = h.Access(addr)
			default:
				site := &hints[op%len(hints)]
				if lat = h.AccessLine(*site, addr); lat < 0 {
					lat, *site = h.AccessMiss(addr)
				}
			}
			if want := ref.access(addr); lat != want {
				t.Fatalf("step %d: access %#x latency %d, want %d", step, addr, lat, want)
			}
		}
		l1h, l1m, l2h, l2m := h.Stats()
		if l1h != ref.l1.hits || l1m != ref.l1.misses || l2h != ref.l2.hits || l2m != ref.l2.misses {
			t.Fatalf("stats %d/%d %d/%d, want %d/%d %d/%d", l1h, l1m, l2h, l2m,
				ref.l1.hits, ref.l1.misses, ref.l2.hits, ref.l2.misses)
		}
	})
}
