package store

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"peak/internal/ir"
	"peak/internal/irbuild"
	"peak/internal/machine"
	"peak/internal/opt"
	"peak/internal/sim"
	"peak/internal/vcache"
)

// damagedStoreFile returns a store file holding every kind of body record
// Open must sort out: the good SWIM bodies of fillCache, a good chain
// f → g → h, a caller j whose callee k is missing (a dangling callee), a
// second copy of a good body (a duplicate fingerprint), a good body under
// a fingerprint with its high half flipped (a forged fingerprint) and a
// payload that does not decode.
func damagedStoreFile(t *testing.T) []byte {
	t.Helper()
	c, _ := fillCache(t, "SWIM")
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
	loop("k", "")
	j := loop("j", "k")
	m := machine.SPARCII()
	var kFP vcache.FP128
	for _, fn := range []*ir.Func{f, j} {
		key := vcache.Key{Prog: vcache.ProgramKey(prog), Fn: fn.Name, Flags: opt.O3(), Machine: m.Name}
		r, err := c.Resolve(key, func() (*sim.Version, error) { return opt.Compile(prog, fn, opt.O3(), m) })
		if err != nil {
			t.Fatal(err)
		}
		if fn == j {
			kFP = vcache.Fingerprint128(r.V.Callees["k"])
		}
	}

	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.AttachCache(c)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, storeFile))
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := parseFile(data, storeMagic)
	out := appendHeader(nil, storeMagic)
	var good []byte
	for _, rec := range recs {
		if rec.kind != recVersionBody {
			out = appendRecord(out, rec.kind, rec.payload)
			continue
		}
		if vcache.NewDecoder(rec.payload).FP() == kFP {
			continue
		}
		if good == nil {
			good = rec.payload
			forged := bytes.Clone(good)
			binary.LittleEndian.PutUint64(forged, binary.LittleEndian.Uint64(forged)^0xdeadbeef)
			out = appendRecord(out, recVersionBody, forged)
			out = appendRecord(out, recVersionBody, append(bytes.Clone(good[:16]), 1, 2, 3))
		}
		out = appendRecord(out, recVersionBody, rec.payload)
	}
	return appendRecord(out, recVersionBody, good)
}

// TestLoadOrderDeterministic opens one damaged store file with one
// goroutine and with four: body records decode in parallel but fold in
// file order, so the loaded bodies and their sizes, the alias entries, the
// recovery report and the file a flush rewrites must not differ.
func TestLoadOrderDeterministic(t *testing.T) {
	data := damagedStoreFile(t)
	type loaded struct {
		fps      map[vcache.FP128]int64
		entries  []vcache.SnapshotEntry
		recovery RecoveryReport
		file     []byte
	}
	open := func(procs int) loaded {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		dir := t.TempDir()
		path := filepath.Join(dir, storeFile)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		l := loaded{fps: make(map[vcache.FP128]int64), entries: s.entries, recovery: s.Recovery()}
		for fp := range s.versions {
			l.fps[fp] = s.sizes[fp]
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if l.file, err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
		return l
	}
	want := open(1)
	// The forged and the undecodable body, then j for its missing callee;
	// j's alias goes with it.
	if r := want.recovery; r.DroppedBodies != 3 || r.DroppedAliases != 1 || r.TornTail {
		t.Fatalf("recovery = %+v, want 3 bodies and 1 alias dropped", r)
	}
	for i := 0; i < 5; i++ {
		got := open(4)
		if !reflect.DeepEqual(got.fps, want.fps) {
			t.Fatalf("GOMAXPROCS 4 loaded bodies %v, want %v", got.fps, want.fps)
		}
		if !reflect.DeepEqual(got.entries, want.entries) {
			t.Fatalf("GOMAXPROCS 4 loaded entries %v, want %v", got.entries, want.entries)
		}
		if got.recovery != want.recovery {
			t.Fatalf("GOMAXPROCS 4 recovery %+v, want %+v", got.recovery, want.recovery)
		}
		if !bytes.Equal(got.file, want.file) {
			t.Fatalf("GOMAXPROCS 4 flushed %d bytes, GOMAXPROCS 1 %d bytes, or they differ", len(got.file), len(want.file))
		}
	}
}

// TestAttachCacheBytesMatchEncoding checks the cache's byte figure after a
// reopened store preloads it: the store hands over each body's length
// from its record instead of encoding the body again, and that length
// must be the canonical encoding's, summed over the distinct bodies the
// entries address.
func TestAttachCacheBytesMatchEncoding(t *testing.T) {
	dir := t.TempDir()
	warm, _ := fillCache(t, "MGRID")
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
	cold := vcache.New()
	s2.AttachCache(cold)
	var want int64
	seen := make(map[vcache.FP128]bool)
	for _, se := range s2.entries {
		if !seen[se.FP] {
			seen[se.FP] = true
			var e vcache.Encoder
			e.Version(s2.versions[se.FP])
			want += int64(len(e.Buf))
		}
	}
	if got := cold.Stats().Bytes; got != want || want == 0 {
		t.Fatalf("preloaded cache Bytes = %d, want %d (the encodings' total)", got, want)
	}
	if got := warm.Stats().Bytes; got != want {
		t.Fatalf("compiling cache Bytes = %d, preloaded %d", got, want)
	}
}
