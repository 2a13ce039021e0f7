// Package vcache provides a concurrency-safe, content-addressed cache of
// compiled, frozen sim.Versions.
//
// Tuning recompiles the same flag sets constantly: Iterative Elimination
// re-rates the base set every round, later rounds re-add previously dropped
// flags, and experiment drivers tune the same benchmark under several
// methods. The cache makes each distinct compilation happen exactly once
// per (program, function, flag set, machine) — and, one level deeper,
// stores only one Version per distinct *generated code*: flag sets that
// compile to identical LIR (by Fingerprint128) share a single frozen Version.
//
// Concurrency: compiles run outside the cache lock, one in flight per key.
// A later request for a key that is compiling waits for that compile;
// distinct keys compile in parallel. Prefetch compiles a key ahead of its
// first Resolve and holds the result aside until that Resolve publishes
// it, so entries — and their content-dedup aliasing — are installed in
// Resolve order, exactly as if every compile had happened inside Resolve.
//
// Determinism: the compiler is deterministic, so the cache's contents —
// and its Misses/Shared totals — depend only on the set of keys resolved,
// never on request order, worker count or what was prefetched.
// Hits/Lookups totals are likewise scheduling-independent because each
// tuning job performs a fixed sequence of lookups. Cached versions are
// frozen before publication and never mutated afterwards; per-runner state
// (decode plans, predictor counters) lives in each job's sim.Runner, not
// in the shared Version.
package vcache

import (
	"sort"
	"sync"

	"peak/internal/opt"
	"peak/internal/sim"
	"peak/internal/trace"
)

// Key identifies one compilation: program identity (ProgramKey over the
// HIR), the function being compiled, the canonical flag-set fingerprint
// (opt.FlagSet is a canonical bitset, so the value is its own fingerprint),
// and the target machine.
type Key struct {
	Prog    uint64
	Fn      string
	Flags   opt.FlagSet
	Machine string
}

// codeKey addresses generated code rather than requested flags: two Keys
// whose compilations fingerprint identically map to the same codeKey.
type codeKey struct {
	prog    uint64
	fn      string
	machine string
	fp      uint64
}

type entry struct {
	v *sim.Version
	// fp is the full 128-bit content fingerprint; the in-memory dedup map
	// (byCode) aliases on fp.Lo only, the persistent store keys on all of
	// it.
	fp FP128
	// size is the length of the body's canonical encoding (Stats.Bytes).
	size int64
	// shared marks entries whose code was first compiled under a different
	// flag set (content-dedup alias). Recorded per key at insert time, so
	// hits report the same value every time.
	shared bool
	// fromDisk marks entries installed by Preload from a persistent
	// snapshot: they were resolved without compiling anything this process.
	// The set is fixed at boot, so the mark — and the trace tier derived
	// from it — is independent of scheduling.
	fromDisk bool
	// quarantined marks entries a tune's golden-output verification flagged
	// as miscompiled (MarkQuarantined). Observability only: tunes verify
	// every resolution themselves (the verdict is deterministic, so repeat
	// verifications agree), keeping their cycle accounting independent of
	// what other cache users already discovered.
	quarantined bool
}

// Stats is a snapshot of the cache's counters. All totals are
// scheduling-independent (see the package comment).
type Stats struct {
	// Lookups is the number of Resolve calls; Hits the calls answered
	// by an installed entry or by another call's compile they waited for;
	// Misses the calls that installed a key's first entry, compiling it
	// themselves or publishing a prefetched compile. A Prefetch is not a
	// lookup. Each call counts its lookup together with its hit or miss,
	// so every snapshot has Lookups = Hits + Misses.
	Lookups int64
	Hits    int64
	Misses  int64
	// Shared counts compilations whose generated code matched an existing
	// entry's fingerprint, so the compiled result was discarded and the
	// existing frozen Version reused.
	Shared int64
	// Entries is the number of distinct flag-set keys resident; Versions
	// the number of distinct code bodies backing them; Bytes the length
	// of those bodies' canonical encodings (callees count by reference).
	Entries  int64
	Versions int64
	Bytes    int64
	// Quarantined is the number of resident keys flagged as miscompiled by
	// golden-output verification (MarkQuarantined).
	Quarantined int64
	// Preloaded is the number of resident keys installed from a persistent
	// snapshot (Preload) rather than compiled this process; DiskHits the
	// lookups those keys answered. Both stay zero without a store.
	Preloaded int64
	DiskHits  int64
}

// HitRate returns Hits ÷ Lookups as a fraction in [0, 1]. The zero-lookup
// path — a fresh cache queried for stats, exactly what the serve /stats
// endpoint does before the first job lands — reports 0 rather than NaN
// (which json.Marshal would reject and "%.1f" would render as "NaN").
func (s Stats) HitRate() float64 {
	if s.Lookups <= 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// FillMetrics folds the snapshot into a metrics registry under the
// "vcache." prefix: the flow totals as counters, the residency figures
// (entries, versions, bytes, quarantined) as gauges. All values are
// scheduling-independent (see the package comment). No-op when m is nil.
func (s Stats) FillMetrics(m *trace.Metrics) {
	if m == nil {
		return
	}
	m.Add("vcache.lookups", s.Lookups)
	m.Add("vcache.hits", s.Hits)
	m.Add("vcache.misses", s.Misses)
	m.Add("vcache.shared", s.Shared)
	m.Add("vcache.disk_hits", s.DiskHits)
	m.Gauge("vcache.entries", s.Entries)
	m.Gauge("vcache.versions", s.Versions)
	m.Gauge("vcache.bytes", s.Bytes)
	m.Gauge("vcache.quarantined", s.Quarantined)
	m.Gauge("vcache.preloaded", s.Preloaded)
}

// Cache is a concurrency-safe compile cache. The zero value is not usable;
// use New.
type Cache struct {
	mu      sync.Mutex
	entries map[Key]*entry
	byCode  map[codeKey]*entry
	// flight holds the keys compiling outside the lock, and prefetched
	// results no Resolve has published yet.
	flight map[Key]*call
	stats  Stats
}

// call is one compile running outside the cache lock. claimed is set once
// a Resolve has counted the key's miss: that call's result is published
// as soon as it is ready. An unclaimed call is a prefetch; when it
// succeeds its frozen version waits in the flight table (v non-nil) until
// the key's first Resolve publishes it. done is closed when the compile
// has settled.
type call struct {
	done    chan struct{}
	claimed bool
	v       *sim.Version
	fp      FP128
	size    int64
}

// New returns an empty cache.
func New() *Cache {
	return &Cache{
		entries: make(map[Key]*entry),
		byCode:  make(map[codeKey]*entry),
		flight:  make(map[Key]*call),
	}
}

// Resolution is the outcome of one Resolve call: the frozen version, its
// full content fingerprint, whether the key's code is aliased to a Version
// first compiled under a different flag set, and whether the entry was
// installed from a persistent snapshot (Preload) rather than compiled this
// process.
type Resolution struct {
	V        *sim.Version
	FP       FP128
	Shared   bool
	FromDisk bool
}

// Resolve returns the frozen version for key, compiling it at most once
// per distinct key.
//
// compile runs outside the cache lock. Concurrent requesters of a key
// that is compiling wait for that compile and count a hit, so one
// compilation happens per key and the miss count equals the number of
// distinct keys resolved — independent of scheduling. A key that was
// prefetched is published by its first Resolve, which counts the miss
// (waiting first if the prefetch is still compiling). Compile errors are
// returned and not cached; a requester whose awaited compile failed
// compiles the key itself.
func (c *Cache) Resolve(key Key, compile func() (*sim.Version, error)) (Resolution, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	missed := false // this call has counted the key's miss
	miss := func() {
		if !missed {
			missed = true
			c.stats.Lookups++
			c.stats.Misses++
		}
	}
	for {
		if e, ok := c.entries[key]; ok {
			if !missed {
				c.stats.Lookups++
				c.stats.Hits++
				if e.fromDisk {
					c.stats.DiskHits++
				}
			}
			return Resolution{V: e.v, FP: e.fp, Shared: e.shared, FromDisk: e.fromDisk}, nil
		}
		f, ok := c.flight[key]
		switch {
		case ok && f.claimed:
			// Another Resolve is publishing the key: wait, then look again —
			// a hit, or, if that compile failed, a compile of our own.
			c.wait(f)
			continue
		case ok && f.v != nil:
			// A finished prefetch: this is the key's first lookup.
			miss()
			delete(c.flight, key)
			c.publish(key, f.v, f.fp, f.size)
			continue
		case ok:
			// A prefetch still compiling: claim it, so it is published the
			// moment it finishes, and wait.
			miss()
			f.claimed = true
			c.wait(f)
			continue
		}
		miss()
		f = &call{done: make(chan struct{}), claimed: true}
		c.flight[key] = f
		if err := c.run(key, f, compile); err != nil {
			return Resolution{}, err
		}
	}
}

// Prefetch compiles key's version ahead of its first Resolve, on the
// calling goroutine, unless the key is already cached or in flight, in
// which case it returns at once. The result is held aside, counted
// nowhere, until a Resolve of the key publishes it in Resolve order; a
// failed prefetch leaves no trace, and the key's Resolve compiles it
// again. Callers prefetch only keys they are about to resolve: a
// prefetched version no Resolve claims stays in memory for the cache's
// lifetime.
func (c *Cache) Prefetch(key Key, compile func() (*sim.Version, error)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return
	}
	if _, ok := c.flight[key]; ok {
		return
	}
	f := &call{done: make(chan struct{})}
	c.flight[key] = f
	c.run(key, f, compile)
}

// wait releases the lock until f has settled. Caller holds c.mu.
func (c *Cache) wait(f *call) {
	c.mu.Unlock()
	<-f.done
	c.mu.Lock()
}

// run compiles f's key outside the lock, freezes the result and encodes
// it once for its fingerprint and size, and settles f: a failed compile
// leaves the flight table and returns its error, a claimed one is
// published, an unclaimed (prefetched) one stays in the table for its
// first Resolve. Called and returns with c.mu held, also when compile
// panics.
func (c *Cache) run(key Key, f *call, compile func() (*sim.Version, error)) error {
	c.mu.Unlock()
	settled := false
	defer func() {
		if !settled {
			c.mu.Lock()
			delete(c.flight, key)
			close(f.done)
		}
	}()
	v, err := compile()
	var fp FP128
	var size int64
	if err == nil {
		v.Freeze()
		var e Encoder
		e.Version(v)
		fp, size = sum128(e.Buf), int64(len(e.Buf))
	}
	c.mu.Lock()
	settled = true
	if err == nil && !f.claimed {
		f.v, f.fp, f.size = v, fp, size
	} else {
		delete(c.flight, key)
		if err == nil {
			c.publish(key, v, fp, size)
		}
	}
	close(f.done)
	return err
}

// publish installs key's first entry: the compiled version, of encoded
// size size, or an alias of an existing Version with identical generated
// code. Caller holds c.mu.
func (c *Cache) publish(key Key, nv *sim.Version, nfp FP128, size int64) {
	ck := codeKey{key.Prog, key.Fn, key.Machine, nfp.Lo}
	e, ok := c.byCode[ck]
	if ok {
		// Identical generated code under a different flag set: alias the
		// existing frozen Version and drop the fresh compilation. The alias
		// itself was compiled this process, so it is not fromDisk even when
		// the body it aliases is.
		c.stats.Shared++
		e = &entry{v: e.v, fp: e.fp, size: e.size, shared: true}
	} else {
		e = &entry{v: nv, fp: nfp, size: size}
		c.byCode[ck] = e
		c.stats.Versions++
		c.stats.Bytes += size
	}
	c.entries[key] = e
	c.stats.Entries++
}

// SnapshotEntry is one exported cache key: its full fingerprint addresses
// the version body in Snapshot.Versions, Shared preserves the key's
// content-dedup bit.
type SnapshotEntry struct {
	Key    Key
	FP     FP128
	Shared bool
}

// Snapshot is the cache's persistable content: every distinct version body
// keyed by full fingerprint (callees included, each body counted once) and
// every resident key as an alias into it. Sizes holds the length of the
// canonical encoding of each body an entry addresses, the figure Preload
// adds to Stats.Bytes. Quarantined keys are excluded — a persistent store
// must never re-serve code that failed golden-output verification as if it
// were clean.
type Snapshot struct {
	Versions map[FP128]*sim.Version
	Sizes    map[FP128]int64
	Entries  []SnapshotEntry
}

// Export snapshots the cache for persistence. Entries are sorted by
// (Prog, Fn, Machine, Flags) so the snapshot — and any file written from
// it — is byte-deterministic regardless of insertion order.
func (c *Cache) Export() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	sn := Snapshot{Versions: make(map[FP128]*sim.Version), Sizes: make(map[FP128]int64)}
	for key, e := range c.entries {
		if e.quarantined {
			continue
		}
		sn.Entries = append(sn.Entries, SnapshotEntry{Key: key, FP: e.fp, Shared: e.shared})
		sn.Sizes[e.fp] = e.size
		addVersions(sn.Versions, e.v, e.fp)
	}
	SortEntries(sn.Entries)
	return sn
}

// SortEntries orders snapshot entries by key: (Prog, Fn, Machine, Flags).
// Export emits this order and the store writes its alias records in it.
func SortEntries(entries []SnapshotEntry) {
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i].Key, entries[j].Key
		if a.Prog != b.Prog {
			return a.Prog < b.Prog
		}
		if a.Fn != b.Fn {
			return a.Fn < b.Fn
		}
		if a.Machine != b.Machine {
			return a.Machine < b.Machine
		}
		return a.Flags < b.Flags
	})
}

// addVersions registers v under fp and every callee under its own
// fingerprint, transitively, each body once.
func addVersions(dst map[FP128]*sim.Version, v *sim.Version, fp FP128) {
	if _, ok := dst[fp]; ok {
		return
	}
	dst[fp] = v
	for _, cv := range v.Callees {
		addVersions(dst, cv, Fingerprint128(cv))
	}
}

// Preload installs a snapshot's entries (frozen versions loaded from a
// persistent store) without touching the lookup counters, and returns how
// many keys were installed. Keys already resident — and entries whose body
// is missing from the snapshot — are skipped, so preloading composes with
// a warm cache. Callers must pass verified, frozen versions; the store's
// loader checks every body against its fingerprint before handing it
// here. Preload encodes nothing: each new body adds its length from
// sn.Sizes to Stats.Bytes (the store takes it from the record it decoded
// the body from).
func (c *Cache) Preload(sn Snapshot) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, se := range sn.Entries {
		if _, ok := c.entries[se.Key]; ok {
			continue
		}
		body, ok := sn.Versions[se.FP]
		if !ok {
			continue
		}
		ck := codeKey{se.Key.Prog, se.Key.Fn, se.Key.Machine, se.FP.Lo}
		be, ok := c.byCode[ck]
		if !ok {
			be = &entry{v: body, fp: se.FP, size: sn.Sizes[se.FP], fromDisk: true}
			c.byCode[ck] = be
			c.stats.Versions++
			c.stats.Bytes += be.size
		}
		c.entries[se.Key] = &entry{v: be.v, fp: be.fp, size: be.size, shared: se.Shared, fromDisk: true}
		c.stats.Entries++
		c.stats.Preloaded++
		n++
	}
	return n
}

// MarkQuarantined records that key's compilation failed golden-output
// verification. Stats.Quarantined counts the mark and Export skips the
// key, but Resolve still serves the entry, because every tune re-verifies
// its own resolutions and the verdict is deterministic. No-op for unknown
// keys.
func (c *Cache) MarkQuarantined(key Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok && !e.quarantined {
		e.quarantined = true
		c.stats.Quarantined++
	}
}

// Stats returns a snapshot of the counters. The snapshot is taken under
// the same mutex every writer holds (Resolve, Preload, MarkQuarantined all
// mutate c.stats inside c.mu), so the returned struct is always a
// consistent point-in-time view — counters can never be torn against each
// other (Lookups always equals Hits+Misses, for example), no matter how
// many writers race the call. vcache_test.go's TestStatsConsistentUnderRace
// exercises exactly that invariant under the race detector.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
