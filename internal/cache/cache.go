// Package cache implements a two-level set-associative data-cache simulator
// with LRU replacement.
//
// Cache state persists across executions within one tuning-section
// invocation: the first timed execution of a version warms the cache for the
// second, which is exactly the bias the paper's improved RBR method corrects
// with a preconditioning run (paper §2.4.2).
package cache

import "peak/internal/machine"

// A line is one cache line slot. It stores the full line address plus one
// (so key 0 means "invalid") rather than a tag/valid pair: two line
// addresses that map to the same set have equal tags iff they are equal, so
// comparing whole keys is equivalent to comparing tags — and it removes the
// tag division from the hot path.
//
// The lru stamp and the level's tick are 64-bit on purpose: long tuning
// runs reuse one Hierarchy across billions of accesses, and a 32-bit tick
// wraps after ~4.3e9 — after which fresh lines would stamp *small* values
// and be evicted as if least-recently used, silently degrading LRU to
// near-random replacement. See TestLRUTickWraparound.
type line struct {
	key uint64 // lineAddr+1; 0 = invalid
	lru uint64
}

// A Hint names one L1 line slot by index: a caller-held MRU guess for
// AccessLine. The zero Hint is slot 0, a permanently invalid sentinel that
// matches no address, so a zero-valued hint needs no seeding. Hints are
// plain integers, so storing one costs no GC write barrier.
type Hint uint32

type level struct {
	geom machine.CacheGeometry
	// lines holds every way of every set in one slice: slot 0 is the
	// invalid sentinel (key 0, never written) and set s occupies
	// [1+s*assoc, 1+(s+1)*assoc).
	lines    []line
	last     Hint // most recently touched slot; self-validating fast path
	assoc    int
	numSets  int
	setMask  uint64 // numSets-1 when numSets is a power of two, else 0
	lineBits uint
	tick     uint64
	// dm marks a direct-mapped level with a power-of-two set count, where
	// the set walk collapses to one compare (walk1).
	dm bool

	hits, misses int64
}

func newLevel(g machine.CacheGeometry) *level {
	if g.Assoc < 1 {
		g.Assoc = 1
	}
	numSets := g.SizeBytes / (g.LineBytes * g.Assoc)
	if numSets < 1 {
		numSets = 1
	}
	lineBits := uint(0)
	for 1<<lineBits < g.LineBytes {
		lineBits++
	}
	var setMask uint64
	if numSets&(numSets-1) == 0 {
		setMask = uint64(numSets - 1)
	}
	return &level{geom: g, lines: make([]line, 1+numSets*g.Assoc),
		assoc: g.Assoc, numSets: numSets, setMask: setMask, lineBits: lineBits,
		dm: g.Assoc == 1 && (setMask != 0 || numSets == 1)}
}

// access returns true on hit, installing the line otherwise.
func (l *level) access(addr uint64) bool {
	l.tick++
	// MRU fast path: repeated hits to the last-touched line skip the set
	// walk. The slot self-validates — if the line was since evicted its
	// key changed, so a stale hint can never produce a false hit, and a
	// true hit here touches exactly the line the set walk would have.
	if last := &l.lines[l.last]; last.key == (addr>>l.lineBits)+1 {
		last.lru = l.tick
		l.hits++
		return true
	}
	if l.dm {
		return l.walk1(addr)
	}
	return l.walk(addr)
}

// walk1 is walk specialized for direct-mapped power-of-two levels: addr's
// set holds exactly one line, so the scan and victim selection collapse to
// a single compare.
func (l *level) walk1(addr uint64) bool {
	lineAddr := addr >> l.lineBits
	key := lineAddr + 1
	slot := 1 + lineAddr&l.setMask
	ln := &l.lines[slot]
	l.last = Hint(slot)
	if ln.key == key {
		ln.lru = l.tick
		l.hits++
		return true
	}
	l.misses++
	*ln = line{key: key, lru: l.tick}
	return false
}

// walk scans addr's set, installing the line on miss. The caller has already
// advanced l.tick and missed the MRU fast path.
func (l *level) walk(addr uint64) bool {
	lineAddr := addr >> l.lineBits
	key := lineAddr + 1
	var s uint64
	if l.setMask != 0 || l.numSets == 1 {
		s = lineAddr & l.setMask
	} else {
		s = lineAddr % uint64(l.numSets)
	}
	base := 1 + int(s)*l.assoc
	set := l.lines[base : base+l.assoc]
	victim := 0
	for i := range set {
		if set[i].key == key {
			set[i].lru = l.tick
			l.hits++
			l.last = Hint(base + i)
			return true
		}
		if set[i].key == 0 {
			victim = i
		} else if set[victim].key != 0 && set[i].lru < set[victim].lru {
			victim = i
		}
	}
	l.misses++
	set[victim] = line{key: key, lru: l.tick}
	l.last = Hint(base + victim)
	return false
}

func (l *level) reset() {
	clear(l.lines)
	l.last = 0
	l.tick, l.hits, l.misses = 0, 0, 0
}

// Hierarchy is an L1+L2 data cache hierarchy in front of main memory.
type Hierarchy struct {
	l1, l2     *level
	memLatency int64

	// Precomputed access latencies: L1 hit, L1 miss + L2 hit, full miss.
	l1Lat, l2Lat, missLat int64
}

// NewHierarchy builds the hierarchy described by m.
func NewHierarchy(m *machine.Machine) *Hierarchy {
	h := &Hierarchy{
		l1:         newLevel(m.L1),
		l2:         newLevel(m.L2),
		memLatency: m.MemLatency,
	}
	h.l1Lat = h.l1.geom.HitLatency
	h.l2Lat = h.l1.geom.HitLatency + h.l2.geom.HitLatency
	h.missLat = h.l1.geom.HitLatency + h.l2.geom.HitLatency + h.memLatency
	return h
}

// Access simulates a data access to addr (byte address) and returns its
// latency in cycles. Writes are modeled write-allocate, same latency. The
// L1 level's own last-touched slot serves as the hint.
func (h *Hierarchy) Access(addr uint64) int64 {
	if lat := h.AccessLine(h.l1.last, addr); lat >= 0 {
		return lat
	}
	lat, _ := h.AccessMiss(addr)
	return lat
}

// AccessLine resolves an access against a caller-held candidate L1 slot —
// typically a per-load-site MRU hint, which survives level-wide hint
// thrashing when a loop interleaves several array streams. It returns the
// L1 hit latency when slot ln currently holds addr's line and -1 otherwise;
// the hint self-validates exactly like the level's own (an evicted slot's
// key changed, a reset zeroed it). A -1 return MUST be followed by an
// AccessMiss call with the same address — the pair is exactly one access.
// Hot interpreter loops call the pair directly so the dominant case
// (consecutive hits to one line) inlines.
func (h *Hierarchy) AccessLine(ln Hint, addr uint64) int64 {
	l1 := h.l1
	l1.tick++
	if s := &l1.lines[ln]; s.key == (addr>>l1.lineBits)+1 {
		s.lru = l1.tick
		l1.hits++
		return h.l1Lat
	}
	return -1
}

// AccessMiss completes an access whose AccessLine hint missed: walk the L1
// set (the tick was already advanced), then L2 on an L1 miss. It returns
// the access latency and the L1 slot now holding addr — the caller's next
// hint.
func (h *Hierarchy) AccessMiss(addr uint64) (int64, Hint) {
	l1 := h.l1
	var hit bool
	if l1.dm {
		hit = l1.walk1(addr)
	} else {
		hit = l1.walk(addr)
	}
	if hit {
		return h.l1Lat, l1.last
	}
	// The walk installed addr's line on its miss path.
	if h.l2.access(addr) {
		return h.l2Lat, l1.last
	}
	return h.missLat, l1.last
}

// Reset invalidates all lines and clears statistics.
func (h *Hierarchy) Reset() {
	h.l1.reset()
	h.l2.reset()
}

// Stats reports (hits, misses) per level.
func (h *Hierarchy) Stats() (l1Hits, l1Misses, l2Hits, l2Misses int64) {
	return h.l1.hits, h.l1.misses, h.l2.hits, h.l2.misses
}
