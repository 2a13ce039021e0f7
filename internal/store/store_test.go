package store

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"peak/internal/ir"
	"peak/internal/irbuild"
	"peak/internal/machine"
	"peak/internal/opt"
	"peak/internal/sim"
	"peak/internal/vcache"
	"peak/internal/workloads"
)

// fillCache compiles a handful of flag sets for bench into a fresh cache
// and returns the cache plus the keys used.
func fillCache(t *testing.T, bench string) (*vcache.Cache, []vcache.Key) {
	t.Helper()
	b, ok := workloads.ByName(bench)
	if !ok {
		t.Fatalf("benchmark %s not found", bench)
	}
	m := machine.SPARCII()
	pk := vcache.ProgramKey(b.Prog)
	c := vcache.New()
	flags := []opt.FlagSet{opt.O3()}
	for _, f := range opt.AllFlags()[:5] {
		flags = append(flags, opt.O3().Without(f))
	}
	var keys []vcache.Key
	for _, fs := range flags {
		fs := fs
		key := vcache.Key{Prog: pk, Fn: b.TSName, Flags: fs, Machine: m.Name}
		if _, err := c.Resolve(key, func() (*sim.Version, error) {
			return opt.Compile(b.Prog, b.TS, fs, m)
		}); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
	}
	return c, keys
}

func TestOpenEmptyDir(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Versions != 0 || st.Entries != 0 || st.Memos != 0 {
		t.Fatalf("fresh store stats = %+v, want zeros", st)
	}
	if r := s.Recovery(); r.Records != 0 || r.TornTail || r.HeaderInvalid {
		t.Fatalf("fresh store recovery = %+v, want clean", r)
	}
}

// TestSnapshotRoundTrip is the tentpole integration check at package
// level: a populated cache flushed through the store and reloaded in a
// new Store must preload a fresh cache so that every original key
// resolves as a disk hit, with the resolved versions content-identical
// (equal full fingerprints) to the originals.
func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	warm, keys := fillCache(t, "MGRID")

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.AttachCache(warm)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r := s2.Recovery(); r.TornTail || r.HeaderInvalid || r.DroppedBodies != 0 || r.DroppedAliases != 0 {
		t.Fatalf("clean reopen reported recovery %+v", r)
	}
	st := s2.Stats()
	if st.Entries != int64(len(keys)) {
		t.Fatalf("reloaded %d entries, want %d", st.Entries, len(keys))
	}
	cold := vcache.New()
	if n := s2.AttachCache(cold); n != len(keys) {
		t.Fatalf("preloaded %d keys, want %d", n, len(keys))
	}
	wantSn := warm.Export()
	want := make(map[vcache.Key]vcache.SnapshotEntry)
	for _, se := range wantSn.Entries {
		want[se.Key] = se
	}
	for _, key := range keys {
		r, err := cold.Resolve(key, func() (*sim.Version, error) {
			t.Fatalf("key %+v recompiled despite warm store", key)
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !r.FromDisk {
			t.Errorf("key %+v not marked FromDisk", key)
		}
		if r.FP != want[key].FP {
			t.Errorf("key %+v round-tripped to fingerprint %s, want %s", key, r.FP, want[key].FP)
		}
		if vcache.Fingerprint128(r.V) != want[key].FP {
			t.Errorf("key %+v: decoded body re-fingerprints differently", key)
		}
	}
}

// TestFlushDeterministic pins the byte-reproducibility the warm-start
// determinism checks rely on: flushing the same content twice — from two
// independently built stores — produces identical files.
func TestFlushDeterministic(t *testing.T) {
	files := make([][]byte, 2)
	for i := range files {
		dir := t.TempDir()
		c, _ := fillCache(t, "SWIM")
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s.AttachCache(c)
		s.RecordMemo("rate", "key-b", []byte{2})
		s.RecordMemo("rate", "key-a", []byte{1})
		s.RecordMemo("cell", "key-c", []byte{3})
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, "peak.store"))
		if err != nil {
			t.Fatal(err)
		}
		files[i] = data
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatalf("two flushes of identical content differ: %d vs %d bytes", len(files[0]), len(files[1]))
	}
}

// TestMemoFrozenReadSet pins the determinism contract: records written
// this process are invisible to lookupMemo and MemoEach until the store
// is flushed and reopened.
func TestMemoFrozenReadSet(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.RecordMemo("rate", "k1", []byte("v1"))
	if _, ok := s.lookupMemo("rate", "k1"); ok {
		t.Fatal("pending record visible before flush+reopen")
	}
	s.MemoEach("rate", func(key string, _ []byte) {
		t.Fatalf("MemoEach visited pending record %q", key)
	})
	// First write wins; duplicates are dropped.
	s.RecordMemo("rate", "k1", []byte("other"))
	if st := s.Stats(); st.Pending != 1 || st.MemoMisses != 1 {
		t.Fatalf("stats = %+v, want 1 pending / 1 memo miss", st)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := s2.lookupMemo("rate", "k1")
	if !ok || string(v) != "v1" {
		t.Fatalf("reopened lookup = %q, %v; want v1, true", v, ok)
	}
	if _, ok := s2.lookupMemo("rate", "absent"); ok {
		t.Fatal("absent key reported present")
	}
	visited := 0
	s2.MemoEach("rate", func(key string, payload []byte) {
		visited++
		if key != "k1" || string(payload) != "v1" {
			t.Errorf("MemoEach visited %q=%q", key, payload)
		}
	})
	if visited != 1 {
		t.Fatalf("MemoEach visited %d records, want 1", visited)
	}
	// Re-recording a key already in the read set is dropped, and a flush
	// carries the read set forward.
	s2.RecordMemo("rate", "k1", []byte("clobber"))
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := s3.lookupMemo("rate", "k1"); string(v) != "v1" {
		t.Fatalf("read set clobbered across flush: %q", v)
	}
}

// TestCorruptTailRecovery mirrors the journal's recovery contract:
// a file with a flipped bit mid-stream keeps its valid prefix and reports
// the damage, and a truncated file keeps the records before the tear.
func TestCorruptTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c", "d"} {
		s.RecordMemo("rate", k, []byte("payload-"+k))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "peak.store")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Flip a bit inside the third record's payload.
	recs, _ := parseFile(data, storeMagic)
	if len(recs) != 4 {
		t.Fatalf("setup: %d records, want 4", len(recs))
	}
	off := recs[1].end
	mutated := append([]byte(nil), data...)
	mutated[off+7] ^= 0x40
	if err := os.WriteFile(path, mutated, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := s2.Recovery()
	if r.Records != 2 || !r.TornTail || r.DroppedBytes == 0 {
		t.Fatalf("corrupt-tail recovery = %+v, want 2 records kept + torn tail", r)
	}
	if _, ok := s2.lookupMemo("rate", "a"); !ok {
		t.Error("record before the corruption lost")
	}
	if _, ok := s2.lookupMemo("rate", "c"); ok {
		t.Error("record at the corruption survived")
	}

	// Truncate mid-record.
	if err := os.WriteFile(path, data[:off+4], 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r := s3.Recovery(); r.Records != 2 || !r.TornTail {
		t.Fatalf("truncation recovery = %+v, want 2 records + torn tail", r)
	}

	// Garbage header: opens empty, flagged, no error.
	if err := os.WriteFile(path, []byte("not a store file at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	s4, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r := s4.Recovery(); !r.HeaderInvalid || r.Records != 0 {
		t.Fatalf("bad-header recovery = %+v, want HeaderInvalid", r)
	}
}

// TestLowBitsCollisionRegression is the 128-bit key regression test: a
// body record forged under a fingerprint that shares the genuine body's
// low 64 bits but differs in the high 64 must neither clobber the genuine
// body nor be served — it occupies its own 128-bit slot and fails
// fingerprint verification there. A 64-bit-keyed store would have let the
// forgery replace the genuine body silently.
func TestLowBitsCollisionRegression(t *testing.T) {
	dir := t.TempDir()
	c, keys := fillCache(t, "SWIM")
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.AttachCache(c)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "peak.store")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := parseFile(data, storeMagic)
	var forged []byte
	bodyCount := 0
	for _, r := range recs {
		if r.kind != recVersionBody {
			continue
		}
		bodyCount++
		if forged == nil {
			// Same payload, declared FP with Hi flipped: identical low
			// 64 bits, different 128-bit identity.
			forged = append([]byte(nil), r.payload...)
			binary.LittleEndian.PutUint64(forged, binary.LittleEndian.Uint64(forged)^0xdeadbeef)
		}
	}
	if forged == nil {
		t.Fatal("setup: no body records in flushed store")
	}
	data = appendRecord(data, recVersionBody, forged)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := s2.Recovery()
	if r.DroppedBodies != 1 {
		t.Fatalf("recovery = %+v, want exactly the forged body dropped", r)
	}
	if st := s2.Stats(); st.Versions != int64(bodyCount) {
		t.Fatalf("loaded %d bodies, want %d genuine ones intact", st.Versions, bodyCount)
	}
	cold := vcache.New()
	if n := s2.AttachCache(cold); n != len(keys) {
		t.Fatalf("preloaded %d keys, want %d — forgery displaced a genuine body", n, len(keys))
	}
}

// TestStoreStatsConsistentUnderRace hammers the memo paths from many
// goroutines while readers snapshot Stats, proving (under -race) that all
// counters are mutated inside the store mutex and snapshots are never
// torn: memo hits + misses always equals lookups issued so far.
func TestStoreStatsConsistentUnderRace(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := string(rune('a' + (i % 7)))
				s.lookupMemo("rate", key)
				s.RecordMemo("rate", key, []byte{byte(g)})
			}
		}()
	}
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				st := s.Stats()
				if st.MemoHits != 0 {
					t.Error("hit against an empty read set")
					return
				}
				if st.Pending > 7 {
					t.Errorf("pending %d > 7 distinct keys", st.Pending)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()
	st := s.Stats()
	if st.MemoMisses != 4*200 {
		t.Fatalf("memo misses = %d, want %d", st.MemoMisses, 4*200)
	}
	if st.Pending != 7 {
		t.Fatalf("pending = %d, want 7 distinct keys (first write wins)", st.Pending)
	}
}

// TestPreviousFormatUpgrade opens a cache directory written by the build
// before the canonical body encoding. Its store keys bodies and memos by
// fingerprints this build never computes, so it must open empty with
// header_invalid, and its first flush must write a store that reopens
// clean. The journal's format did not change: every checkpoint loads.
func TestPreviousFormatUpgrade(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{storeFile, JournalFile} {
		data, err := os.ReadFile(filepath.Join("testdata", "previous_format", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r := s.Recovery(); !r.HeaderInvalid || r.Records != 0 {
		t.Fatalf("previous-format store recovery = %+v, want header_invalid and no records", r)
	}
	if st := s.Stats(); st.Versions != 0 || st.Entries != 0 || st.Memos != 0 {
		t.Fatalf("previous-format store loaded %+v, want an empty store", st)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	if r := s.Recovery(); r != (RecoveryReport{}) {
		t.Fatalf("store rewritten by this build reopens with %+v, want clean", r)
	}

	j, err := OpenJournal(filepath.Join(dir, JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if r := j.Recovery(); r.HeaderInvalid || r.Records != 3 || r.IDs != 2 {
		t.Fatalf("journal recovery = %+v, want 3 records over 2 IDs", r)
	}
	for id, round := range map[string]int{"VORTEX/sparc2/auto/train": 1, "SWIM/p4/auto/train": 2} {
		if rec, ok := j.Latest(id); !ok || rec.Round != round {
			t.Errorf("Latest(%s) = %+v, %t; want round %d", id, rec, ok, round)
		}
	}
}

// TestDanglingCalleeDropsCallers: f calls g and g calls h, none of them
// inlinable. A store missing h's body must drop g, and then f, whose
// callee g is gone, whatever order the bodies are checked in, and the
// alias of f with them.
func TestDanglingCalleeDropsCallers(t *testing.T) {
	prog := ir.NewProgram()
	loop := func(name, callee string) *ir.Func {
		b := irbuild.NewFunc(name)
		b.ScalarParam("n", ir.I64).Local("s", ir.F64)
		step := b.FAdd(b.V("s"), b.F(1))
		if callee != "" {
			step = b.FAdd(b.V("s"), b.Call(callee, b.V("n")))
		}
		fn := b.Body(b.For("i", b.I(0), b.V("n"), 1, b.Set(b.V("s"), step)), b.Ret(b.V("s")))
		prog.AddFunc(fn)
		return fn
	}
	loop("h", "")
	loop("g", "h")
	f := loop("f", "g")
	m := machine.SPARCII()
	c := vcache.New()
	key := vcache.Key{Prog: vcache.ProgramKey(prog), Fn: "f", Flags: opt.O3(), Machine: m.Name}
	r, err := c.Resolve(key, func() (*sim.Version, error) { return opt.Compile(prog, f, opt.O3(), m) })
	if err != nil {
		t.Fatal(err)
	}
	g := r.V.Callees["g"]
	if g == nil || g.Callees["h"] == nil {
		t.Fatal("setup: f does not call g, or g does not call h")
	}
	hFP := vcache.Fingerprint128(g.Callees["h"])

	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.AttachCache(c)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, storeFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := parseFile(data, storeMagic)
	kept := appendHeader(nil, storeMagic)
	for _, rec := range recs {
		if rec.kind == recVersionBody && vcache.NewDecoder(rec.payload).FP() == hFP {
			continue
		}
		kept = appendRecord(kept, rec.kind, rec.payload)
	}
	if len(kept) == len(data) {
		t.Fatal("setup: h's body is not in the store")
	}
	if err := os.WriteFile(path, kept, 0o644); err != nil {
		t.Fatal(err)
	}
	// Map order varies between opens; each must drop the same bodies.
	for i := 0; i < 10; i++ {
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if rep := s.Recovery(); rep.DroppedBodies != 2 || rep.DroppedAliases != 1 {
			t.Fatalf("recovery = %+v, want g and f dropped with f's alias", rep)
		}
		if st := s.Stats(); st.Versions != 0 || st.Entries != 0 {
			t.Fatalf("loaded %+v, want no bodies and no aliases", st)
		}
	}
}

// forgedSWIMBody returns the canonical encoding of a compiled SWIM body
// with its first block renumbered to -5, and that encoding's fingerprint:
// a record that hashes correctly but that the simulator cannot index.
func forgedSWIMBody(t *testing.T) ([]byte, vcache.FP128) {
	t.Helper()
	b, _ := workloads.ByName("SWIM")
	v, err := opt.Compile(b.Prog, b.TS, opt.O3(), machine.SPARCII())
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Callees) != 0 {
		t.Fatal("setup: SWIM's tuning section has callees")
	}
	v.LF.Blocks[0].ID = -5
	var e vcache.Encoder
	e.Version(v)
	return e.Buf, vcache.Fingerprint128(v)
}

// TestForgedBlockIDDropped: a body record whose payload hashes to its
// declared fingerprint but names a negative block ID is dropped at Open
// and counted, instead of panicking when the loaded version is indexed.
func TestForgedBlockIDDropped(t *testing.T) {
	dir := t.TempDir()
	c, keys := fillCache(t, "SWIM")
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.AttachCache(c)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, storeFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body, fp := forgedSWIMBody(t)
	var e vcache.Encoder
	e.FP(fp)
	e.Buf = append(e.Buf, body...)
	if err := os.WriteFile(path, appendRecord(data, recVersionBody, e.Buf), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r := s2.Recovery(); r.DroppedBodies != 1 {
		t.Fatalf("recovery = %+v, want the forged body dropped", r)
	}
	if n := s2.AttachCache(vcache.New()); n != len(keys) {
		t.Fatalf("preloaded %d keys, want the %d genuine ones", n, len(keys))
	}
}

// TestFlushSkipsUnchangedFile checks that Flush leaves a whole file alone
// when the store holds nothing new — disk hits on preloaded keys included
// — and rewrites it once a pending memo or a freshly compiled key
// appears.
func TestFlushSkipsUnchangedFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "peak.store")
	c, keys := fillCache(t, "SWIM")
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.AttachCache(c)
	s.RecordMemo("rate", "k", []byte{1})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := vcache.New()
	s.AttachCache(warm)
	if _, err := warm.Resolve(keys[0], func() (*sim.Version, error) {
		t.Fatal("preloaded key recompiled")
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Flushes != 0 {
		t.Fatalf("unchanged store rewrote its file: %+v", st)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
		t.Fatal("unchanged store's file changed")
	}

	// A key compiled this process is new content.
	b, _ := workloads.ByName("SWIM")
	m := machine.SPARCII()
	fs := opt.O3().Without(opt.AllFlags()[7])
	key := vcache.Key{Prog: vcache.ProgramKey(b.Prog), Fn: b.TSName, Flags: fs, Machine: m.Name}
	if _, err := warm.Resolve(key, func() (*sim.Version, error) { return opt.Compile(b.Prog, b.TS, fs, m) }); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Flushes != 1 {
		t.Fatalf("store with a new cache key did not rewrite its file: %+v", st)
	}

	// So is a pending memo, with no cache attached.
	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.RecordMemo("rate", "k2", []byte{2})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Flushes != 1 {
		t.Fatalf("want one rewrite, for the pending memo alone: %+v", st)
	}
}

// TestFlushRepairsDamagedFile checks that a file Open could not load whole
// is rewritten by the next Flush even with nothing new to write: a torn
// tail is cut back to the intact records, and a bad header becomes an
// empty, valid store.
func TestFlushRepairsDamagedFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "peak.store")
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.RecordMemo("rate", "a", []byte("payload"))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name, damage string
		records      int
	}{
		{"torn tail", string(whole) + "torn", 1},
		{"bad header", "not a store file at all", 0},
	} {
		if err := os.WriteFile(path, []byte(tc.damage), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.Flushes != 1 {
			t.Fatalf("%s: damaged file was not rewritten: %+v", tc.name, st)
		}
		s, err = Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if r := s.Recovery(); r.TornTail || r.HeaderInvalid || r.DroppedBytes != 0 || r.Records != tc.records {
			t.Fatalf("%s: reopened repaired file with recovery %+v, want %d clean records", tc.name, r, tc.records)
		}
	}
}
