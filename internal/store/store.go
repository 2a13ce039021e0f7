// Package store persists tuning state across process restarts: a
// content-addressed snapshot of the compile cache (internal/vcache) and a
// memo table of finished rating work, both in one CRC-32C-framed file
// written atomically (temp + fsync + rename), and the checkpoint journal
// (journal.go), an append-only file in the same record format.
//
// The store is the disk tier of the two-tier cache. The memory tier — the
// vcache — answers repeat compilations within a process; the store carries
// them across processes, and carries something the memory tier never held:
// memoized rating results, so a warm restart can skip simulation entirely
// for work it has already measured.
//
// Memo (memo.go) is the one read-through path for typed memo kinds,
// fixed-size or with their own codec (profiles); RecordMemo and MemoEach
// serve serve's job artifacts, which are restored by iteration, not
// looked up.
//
// Determinism contract: the memo read set is frozen at Open. Memo answers
// only from records loaded off disk at open time; RecordMemo writes to a
// pending overlay that becomes visible only after Flush and a reopen. A run therefore sees the same memo answers at every worker
// count and in every scheduling order, which is what keeps warm outputs
// byte-identical to cold ones. Payloads must themselves be deterministic
// (same key ⇒ same bytes) — rating results under the engine's fixed seed
// derivation are, which is also why results that depend on injected
// faults must never be memoized: fault draws consume per-process stream
// state that a key cannot capture.
package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"peak/internal/opt"
	"peak/internal/sched"
	"peak/internal/sim"
	"peak/internal/vcache"
)

// storeFile is the store's data file inside its directory; storeMagic
// opens its header. The magic names the body encoding too: a file written
// under another encoding keys its bodies and memos by fingerprints this
// build never computes, so it opens empty with HeaderInvalid set.
const (
	storeFile  = "peak.store"
	storeMagic = "PEAKSTR2"
)

// Store record kinds.
const (
	recVersionBody byte = 1 // FP128 + canonical encoding (vcache.Encoder.Version)
	recAlias       byte = 2 // vcache.Key -> FP128 (+ shared bit)
	recMemo        byte = 3 // memo kind + key + payload
)

// memoKey identifies one memo record: Kind partitions the namespaces
// ("rate", "cell", "job", ...), Key is the caller's full identity string.
type memoKey struct {
	Kind, Key string
}

// Stats is a snapshot of the store's counters, shaped for JSON (the serve
// /stats "store" and "memo" blocks render it). All values are
// scheduling-independent: the loaded set is fixed at Open and the pending
// set depends only on which work ran, not on order.
type Stats struct {
	// Versions and Entries count the cache bodies and alias keys loaded
	// from disk at Open; Memos the memo records loaded (the frozen read
	// set).
	Versions int64 `json:"versions"`
	Entries  int64 `json:"entries"`
	Memos    int64 `json:"memos"`
	// Preloaded is the number of alias keys AttachCache installed into
	// the attached compile cache.
	Preloaded int64 `json:"preloaded"`
	// MemoHits and MemoMisses count Memo lookups against the
	// frozen read set; Pending the records queued by RecordMemo for the
	// next Flush.
	MemoHits   int64 `json:"memo_hits"`
	MemoMisses int64 `json:"memo_misses"`
	Pending    int64 `json:"pending"`
	// Flushes counts completed Flush rewrites; FlushedBytes the size of
	// the last file written.
	Flushes      int64 `json:"flushes"`
	FlushedBytes int64 `json:"flushed_bytes"`
}

// RecoveryReport describes what Open found on disk: the valid prefix is
// kept, everything after the first torn or corrupt frame is dropped and
// counted (FileRecovery), and records that decode badly are counted here.
type RecoveryReport struct {
	FileRecovery
	// DroppedBodies counts version bodies rejected at load: a payload
	// that does not decode, one whose bytes do not hash to the 128-bit
	// fingerprint it was stored under, or one with a dangling callee
	// reference. DroppedAliases counts alias keys whose body was
	// rejected.
	DroppedBodies  int `json:"dropped_bodies"`
	DroppedAliases int `json:"dropped_aliases"`
}

// Store is a persistent warm-start store bound to one directory. All
// methods are safe for concurrent use.
type Store struct {
	mu    sync.Mutex
	dir   string
	cache *vcache.Cache // attached by AttachCache; exported at Flush
	// cacheKeys counts the keys AttachCache installed into cache.
	cacheKeys int64

	versions map[vcache.FP128]*sim.Version // loaded, verified, frozen bodies
	sizes    map[vcache.FP128]int64        // each loaded body's encoded length
	entries  []vcache.SnapshotEntry        // loaded alias keys
	memo     map[memoKey][]byte            // frozen read set (loaded at Open)
	pending  map[memoKey][]byte            // overlay visible after Flush+reopen

	stats    Stats
	recovery RecoveryReport
	// damaged marks a file Open could not load whole (a bad header, a
	// dropped tail, body, alias or memo record), so the next Flush
	// rewrites it even with nothing new to write.
	damaged bool
}

// Open loads the store in dir, creating the directory if needed. A missing
// file opens an empty store; a damaged file opens with the valid prefix
// and a RecoveryReport, never an error. Errors are reserved for an
// unusable directory.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:      dir,
		versions: make(map[vcache.FP128]*sim.Version),
		sizes:    make(map[vcache.FP128]int64),
		memo:     make(map[memoKey][]byte),
		pending:  make(map[memoKey][]byte),
	}
	data, err := os.ReadFile(filepath.Join(dir, storeFile))
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.load(data)
	return s, nil
}

// decodedBody is one body record after decoding and verification, with
// the length of its encoding; v is nil when the record was rejected.
type decodedBody struct {
	v    *sim.Version
	refs []vcache.CalleeRef
	fp   vcache.FP128
	size int64
}

// decodeBody decodes and verifies one body record. A body is verified by
// hashing the bytes it was decoded from, so a payload forged under another
// body's low 64 bits (the store keys on all 128) occupies its own slot and
// fails there. The payload is the fingerprint, 16 bytes, and then the
// body's encoding.
func decodeBody(payload []byte) decodedBody {
	d := vcache.NewDecoder(payload)
	want := d.FP()
	v, refs, fp := d.Version()
	if d.End() != nil || fp != want {
		return decodedBody{}
	}
	return decodedBody{v: v, refs: refs, fp: fp, size: int64(len(payload) - 16)}
}

// load parses the file contents into the frozen read set. Body records,
// nearly all of the work, are decoded and verified in parallel; every
// record is then folded in file order, so the loaded set and the recovery
// report depend only on the file.
func (s *Store) load(data []byte) {
	recs, rep := parseFile(data, storeMagic)
	s.recovery = RecoveryReport{FileRecovery: rep}
	var bodyRecs []int
	for i, r := range recs {
		if r.kind == recVersionBody {
			bodyRecs = append(bodyRecs, i)
		}
	}
	decoded := make([]decodedBody, len(recs))
	// Open runs before any tuning work, so the decode may use every core.
	sched.New(0).Map(len(bodyRecs), func(k int) {
		i := bodyRecs[k]
		decoded[i] = decodeBody(recs[i].payload)
	})
	bodies := make(map[vcache.FP128]decodedBody)
	for i, r := range recs {
		d := vcache.NewDecoder(r.payload)
		switch r.kind {
		case recVersionBody:
			db := decoded[i]
			if db.v == nil {
				s.recovery.DroppedBodies++
				continue
			}
			bodies[db.fp] = db
		case recAlias:
			var se vcache.SnapshotEntry
			se.Key.Prog = d.U64()
			se.Key.Fn = d.Str()
			se.Key.Flags = opt.FlagSet(d.U64())
			se.Key.Machine = d.Str()
			se.FP = d.FP()
			se.Shared = d.Bool()
			if d.End() != nil {
				s.recovery.DroppedAliases++
				continue
			}
			s.entries = append(s.entries, se)
		case recMemo:
			mk := memoKey{Kind: d.Str(), Key: d.Str()}
			val := d.Bytes()
			if d.End() != nil {
				s.damaged = true
				continue
			}
			s.memo[mk] = bytes.Clone(val)
		}
	}
	// Drop every body that references a callee the file does not hold,
	// until none is left (a dropped callee strands its callers), then link
	// the rest. The kept set depends only on the file's content.
	for dropped := true; dropped; {
		dropped = false
		for fp, pb := range bodies {
			for _, ref := range pb.refs {
				if _, ok := bodies[ref.FP]; !ok {
					delete(bodies, fp)
					s.recovery.DroppedBodies++
					dropped = true
					break
				}
			}
		}
	}
	for fp, pb := range bodies {
		for _, ref := range pb.refs {
			if pb.v.Callees == nil {
				pb.v.Callees = make(map[string]*sim.Version, len(pb.refs))
			}
			pb.v.Callees[ref.Name] = bodies[ref.FP].v
		}
		s.versions[fp] = pb.v
		s.sizes[fp] = pb.size
	}
	for _, v := range s.versions {
		v.Freeze()
	}
	kept := s.entries[:0]
	for _, se := range s.entries {
		if _, ok := s.versions[se.FP]; !ok {
			s.recovery.DroppedAliases++
			continue
		}
		kept = append(kept, se)
	}
	s.entries = kept
	s.stats.Versions = int64(len(s.versions))
	s.stats.Entries = int64(len(s.entries))
	s.stats.Memos = int64(len(s.memo))
	rec := s.recovery
	if rec.DroppedBytes > 0 || rec.HeaderInvalid || rec.DroppedBodies > 0 || rec.DroppedAliases > 0 {
		s.damaged = true
	}
}

// AttachCache preloads the store's snapshot into c and remembers c as the
// cache to export at Flush time. Returns the number of keys installed.
func (s *Store) AttachCache(c *vcache.Cache) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c != s.cache {
		s.cache, s.cacheKeys = c, 0
	}
	n := c.Preload(vcache.Snapshot{Versions: s.versions, Sizes: s.sizes, Entries: s.entries})
	s.cacheKeys += int64(n)
	s.stats.Preloaded += int64(n)
	return n
}

// lookupMemo returns the payload recorded under (kind, key) in the frozen
// read set loaded at Open. Records written this process (RecordMemo) are
// never returned — they become visible only after Flush and a reopen,
// which is what keeps memo answers independent of scheduling.
func (s *Store) lookupMemo(kind, key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.memo[memoKey{Kind: kind, Key: key}]
	if ok {
		s.stats.MemoHits++
	} else {
		s.stats.MemoMisses++
	}
	return v, ok
}

// RecordMemo queues payload under (kind, key) for the next Flush. The
// first write wins; re-records of a key already queued or already in the
// read set are dropped (payloads are required to be deterministic, so all
// writers of one key carry identical bytes). The payload is copied, so
// callers may reuse their buffer.
func (s *Store) RecordMemo(kind, key string, payload []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mk := memoKey{Kind: kind, Key: key}
	if _, ok := s.memo[mk]; ok {
		return
	}
	if _, ok := s.pending[mk]; ok {
		return
	}
	cp := make([]byte, len(payload))
	copy(cp, payload)
	s.pending[mk] = cp
	s.stats.Pending++
}

// MemoEach calls fn for every record of the given kind in the frozen read
// set, in sorted key order. Pending records are not visited — like
// Memo, iteration sees only what was on disk at Open.
func (s *Store) MemoEach(kind string, fn func(key string, payload []byte)) {
	s.mu.Lock()
	keys := make([]string, 0)
	for mk := range s.memo {
		if mk.Kind == kind {
			keys = append(keys, mk.Key)
		}
	}
	sort.Strings(keys)
	vals := make([][]byte, len(keys))
	for i, k := range keys {
		vals[i] = s.memo[memoKey{Kind: kind, Key: k}]
	}
	s.mu.Unlock()
	for i, k := range keys {
		fn(k, vals[i])
	}
}

// Flush rewrites the store file atomically: the attached cache's current
// snapshot (if one is attached), plus the union of the loaded and pending
// memo sets, framed, written to a temp file, fsynced and renamed over the
// old file. The file is byte-deterministic for a given content: bodies
// are sorted by fingerprint, aliases by key, memos by (kind, key). When
// the file Open read was whole and nothing was added since — no pending
// memo, no cache key beyond those AttachCache preloaded — the file
// already holds that content, and Flush writes nothing.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.changed() {
		return nil
	}

	buf := appendHeader(make([]byte, 0, 1<<16), storeMagic)

	sn := vcache.Snapshot{Versions: s.versions, Entries: s.entries}
	if s.cache != nil {
		sn = s.cache.Export()
		// Bodies only the disk knew about (e.g. for machines this process
		// never compiled for) must survive the rewrite.
		for fp, v := range s.versions {
			if _, ok := sn.Versions[fp]; !ok {
				sn.Versions[fp] = v
			}
		}
		have := make(map[vcache.Key]bool, len(sn.Entries))
		for _, se := range sn.Entries {
			have[se.Key] = true
		}
		for _, se := range s.entries {
			if !have[se.Key] {
				sn.Entries = append(sn.Entries, se)
			}
		}
		vcache.SortEntries(sn.Entries)
	}
	fps := make([]vcache.FP128, 0, len(sn.Versions))
	for fp := range sn.Versions {
		fps = append(fps, fp)
	}
	sort.Slice(fps, func(i, j int) bool {
		if fps[i].Hi != fps[j].Hi {
			return fps[i].Hi < fps[j].Hi
		}
		return fps[i].Lo < fps[j].Lo
	})
	var e vcache.Encoder
	for _, fp := range fps {
		e.Buf = e.Buf[:0]
		e.FP(fp)
		e.Version(sn.Versions[fp])
		buf = appendRecord(buf, recVersionBody, e.Buf)
	}
	for _, se := range sn.Entries {
		e.Buf = e.Buf[:0]
		e.U64(se.Key.Prog)
		e.Str(se.Key.Fn)
		e.U64(uint64(se.Key.Flags))
		e.Str(se.Key.Machine)
		e.FP(se.FP)
		e.Bool(se.Shared)
		buf = appendRecord(buf, recAlias, e.Buf)
	}
	mks := make([]memoKey, 0, len(s.memo)+len(s.pending))
	for mk := range s.memo {
		mks = append(mks, mk)
	}
	for mk := range s.pending {
		mks = append(mks, mk)
	}
	sort.Slice(mks, func(i, j int) bool {
		if mks[i].Kind != mks[j].Kind {
			return mks[i].Kind < mks[j].Kind
		}
		return mks[i].Key < mks[j].Key
	})
	for _, mk := range mks {
		val, ok := s.memo[mk]
		if !ok {
			val = s.pending[mk]
		}
		e.Buf = e.Buf[:0]
		e.Str(mk.Kind)
		e.Str(mk.Key)
		e.Str(string(val))
		buf = appendRecord(buf, recMemo, e.Buf)
	}

	if err := writeFileAtomic(filepath.Join(s.dir, storeFile), buf); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.stats.Flushes++
	s.stats.FlushedBytes = int64(len(buf))
	return nil
}

// changed reports whether a Flush would write anything the file on disk
// does not hold. Caller holds s.mu.
func (s *Store) changed() bool {
	if s.damaged || len(s.pending) > 0 {
		return true
	}
	if s.cache == nil {
		return false
	}
	cs := s.cache.Stats()
	return cs.Entries != s.cacheKeys || cs.Quarantined > 0
}

// Stats returns a consistent snapshot of the counters (taken under the
// same mutex every writer holds).
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Recovery returns what Open found on disk.
func (s *Store) Recovery() RecoveryReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}
