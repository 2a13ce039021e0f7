package core

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"reflect"
	"testing"

	"peak/internal/fault"
	"peak/internal/machine"
	"peak/internal/opt"
	"peak/internal/profiling"
	"peak/internal/sched"
	"peak/internal/store"
	"peak/internal/vcache"
)

// storedTune runs one tune of the tiny benchmark under cfg against st
// (nil = no store) with the given worker count and returns the result.
func storedTune(t *testing.T, st *store.Store, cache *vcache.Cache, workers int, cfg Config) *TuneResult {
	t.Helper()
	b := tinyBenchmark()
	m := machine.SPARCII()
	p, err := profiling.Run(b, b.Train, m)
	if err != nil {
		t.Fatal(err)
	}
	tu := &Tuner{Bench: b, Mach: m, Dataset: b.Train, Cfg: cfg, Profile: p,
		Pool: sched.New(workers), Cache: cache, Store: st}
	res, err := tu.Tune()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRatingMemoWarmMatchesCold is the tentpole determinism check at the
// engine level: a cold tune against an empty store, flushed and reopened,
// must warm-start a second tune to the identical TuneResult — every
// counter, cycle and flag byte-for-byte — with the rating simulations
// answered from the memo table, at several worker counts. A store filled
// by a NoCompileCache tune must answer a cached tune just as fully: the
// compile cache is not part of a rating's identity.
func TestRatingMemoWarmMatchesCold(t *testing.T) {
	dir := t.TempDir()

	cold, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	coldCache := vcache.New()
	cold.AttachCache(coldCache)
	want := storedTune(t, cold, coldCache, 4, DefaultConfig())
	if st := cold.Stats(); st.MemoHits != 0 || st.Pending == 0 {
		t.Fatalf("cold store stats = %+v, want 0 hits and pending records", st)
	}
	if err := cold.Flush(); err != nil {
		t.Fatal(err)
	}

	plain := storedTune(t, nil, vcache.New(), 4, DefaultConfig())
	if !reflect.DeepEqual(plain, want) {
		t.Fatalf("attaching an empty store changed the result:\nplain %+v\nstore %+v", plain, want)
	}

	for _, workers := range []int{1, 8} {
		warm, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		warmCache := vcache.New()
		if n := warm.AttachCache(warmCache); n == 0 {
			t.Fatal("warm store preloaded nothing")
		}
		got := storedTune(t, warm, warmCache, workers, DefaultConfig())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("warm tune (%d workers) diverged:\ncold %+v\nwarm %+v", workers, want, got)
		}
		st := warm.Stats()
		if st.MemoHits == 0 {
			t.Fatalf("warm tune (%d workers) hit no memo records: %+v", workers, st)
		}
		if st.MemoMisses != 0 {
			t.Fatalf("warm tune (%d workers) missed %d memo lookups — key drift", workers, st.MemoMisses)
		}
		cs := warmCache.Stats()
		if cs.Misses != 0 {
			t.Fatalf("warm tune (%d workers) recompiled %d flag sets despite preload", workers, cs.Misses)
		}
	}

	nccDir := t.TempDir()
	ncc, err := store.Open(nccDir)
	if err != nil {
		t.Fatal(err)
	}
	noCache := DefaultConfig()
	noCache.NoCompileCache = true
	if got := storedTune(t, ncc, vcache.New(), 4, noCache); !reflect.DeepEqual(got, want) {
		t.Fatalf("-nocache cold tune diverged:\ncached %+v\nnocache %+v", want, got)
	}
	if err := ncc.Flush(); err != nil {
		t.Fatal(err)
	}
	warm, err := store.Open(nccDir)
	if err != nil {
		t.Fatal(err)
	}
	if got := storedTune(t, warm, vcache.New(), 4, DefaultConfig()); !reflect.DeepEqual(got, want) {
		t.Fatalf("cached tune on a -nocache store diverged:\ncold %+v\nwarm %+v", want, got)
	}
	if st := warm.Stats(); st.MemoHits == 0 || st.MemoMisses != 0 {
		t.Fatalf("cached tune on a -nocache store: %d memo hits, %d misses; want hits and no misses", st.MemoHits, st.MemoMisses)
	}
}

// memoRecord runs v through store.Memo on an empty store under the test
// key "k", flushes, and returns the record's full key and payload as they
// sit on disk.
func memoRecord[V any](t *testing.T, kind store.Kind[V], v V) (key string, payload []byte) {
	t.Helper()
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, hit, err := store.Memo(s, kind, "k", func() (V, error) { return v, nil }); hit || err != nil {
		t.Fatalf("Memo on an empty store: hit=%t err=%v", hit, err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s, err = store.Open(dir); err != nil {
		t.Fatal(err)
	}
	n := 0
	s.MemoEach(string(kind), func(k string, p []byte) { key, payload, n = k, p, n+1 })
	if n != 1 {
		t.Fatalf("store holds %d %q records, want 1", n, kind)
	}
	return key, payload
}

// memoAnswer freezes payload under key in a fresh store and returns what
// store.Memo answers for the test key "k".
func memoAnswer[V any](t *testing.T, kind store.Kind[V], key string, payload []byte) (V, bool) {
	t.Helper()
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.RecordMemo(string(kind), key, payload)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s, err = store.Open(dir); err != nil {
		t.Fatal(err)
	}
	v, hit, _ := store.Memo(s, kind, "k", func() (V, error) {
		var zero V
		return zero, errors.New("computed")
	})
	return v, hit
}

// TestRateMemoRoundTrip pins the rate-memo record: every field of a job
// result must survive record → restore, and the payload must be exactly
// 9*8+3 bytes (nine 8-byte fields and three flag bytes). A length drift
// is invisible to the determinism tests — a wrong-size record falls
// through to the real simulation, which produces the same bytes — so this
// is the test that keeps warm starts actually warm.
func TestRateMemoRoundTrip(t *testing.T) {
	in := jobResult{
		rating: Rating{Method: MethodCBR, EVAL: 123.456, VAR: 7.89,
			Samples: 40, Outliers: 3, CIHalf: 0.25, Abandoned: true},
		converged: true,
		escalated: true,
		ctx:       &ratingCtx{cycles: 987654321, invocations: 42, runs: 2},
	}
	key, payload := memoRecord(t, rateKind, in.memo())
	if want := 9*8 + 3; len(payload) != want {
		t.Fatalf("rate memo payload is %d bytes, want %d", len(payload), want)
	}
	saved, hit := memoAnswer(t, rateKind, key, payload)
	if !hit {
		t.Fatal("Memo rejected a freshly recorded payload")
	}
	out := jobResult{ctx: &ratingCtx{}}
	out.restore(saved)
	if !reflect.DeepEqual(in.rating, out.rating) ||
		in.converged != out.converged || in.escalated != out.escalated ||
		in.ctx.cycles != out.ctx.cycles || in.ctx.invocations != out.ctx.invocations ||
		in.ctx.runs != out.ctx.runs {
		t.Fatalf("round trip diverged:\nin  %+v ctx %+v\nout %+v ctx %+v",
			in, *in.ctx, out, *out.ctx)
	}
	if _, hit := memoAnswer(t, rateKind, key, payload[:len(payload)-1]); hit {
		t.Error("Memo accepted a truncated payload")
	}
}

// TestMemoRecordLayouts pins the on-disk bytes of the rate and measure
// memo kinds to the records earlier builds wrote (the golden hex came
// from the hand-written encoders these payload structs replaced), so a
// store written by one build warm-starts the next. Reordering or
// retyping a payload field changes the bytes and fails here; such a
// change needs a memo version bump instead. The values carry NaN (with a
// payload), ±Inf, -0 and negative counts, and every pair of same-typed
// fields differs in at least one case, so a swap cannot go unnoticed.
// Each record must also restore bit-exactly.
func TestMemoRecordLayouts(t *testing.T) {
	nan := math.Float64frombits(0x7ff8000000000001)
	negZero := math.Copysign(0, -1)
	rateA := jobResult{
		rating: Rating{Method: MethodCBR, EVAL: nan, VAR: math.Inf(1),
			Samples: 40, Outliers: 3, CIHalf: negZero, Abandoned: true},
		ctx: &ratingCtx{cycles: -7, invocations: 123456789, runs: 2},
	}
	rateB := jobResult{
		rating: Rating{Method: MethodRBR, EVAL: math.Inf(-1), VAR: 1.5,
			Samples: -1, CIHalf: math.Inf(1)},
		converged: true,
		ctx:       &ratingCtx{cycles: 1 << 40, invocations: -2, runs: 5},
	}
	check := func(name, golden string, payload []byte, reencode func() []byte) {
		t.Helper()
		if got := hex.EncodeToString(payload); got != golden {
			t.Errorf("%s record layout drifted:\ngot  %s\nwant %s", name, got, golden)
		}
		if got := reencode(); !bytes.Equal(got, payload) {
			t.Errorf("%s record did not restore bit-exactly: re-recorded %x", name, got)
		}
	}
	for _, c := range []struct {
		name, golden string
		in           jobResult
	}{
		{"rate A", "0000000000000000010000000000f87f000000000000f07f280000000000000003000000000000000000000000000080010000f9ffffffffffffff15cd5b07000000000200000000000000", rateA},
		{"rate B", "0200000000000000000000000000f0ff000000000000f83fffffffffffffffff0000000000000000000000000000f07f0001000000000000010000feffffffffffffff0500000000000000", rateB},
	} {
		key, payload := memoRecord(t, rateKind, c.in.memo())
		check(c.name, c.golden, payload, func() []byte {
			saved, hit := memoAnswer(t, rateKind, key, payload)
			if !hit {
				t.Fatalf("%s: Memo missed its own record", c.name)
			}
			out := jobResult{ctx: &ratingCtx{}}
			out.restore(saved)
			_, p := memoRecord(t, rateKind, out.memo())
			return p
		})
	}
	key, payload := memoRecord(t, measureKind, measureMemo{TS: -1, Program: 9876543210})
	check("measure", "ffffffffffffffffea16b04c02000000", payload, func() []byte {
		saved, hit := memoAnswer(t, measureKind, key, payload)
		if !hit {
			t.Fatal("measure: Memo missed its own record")
		}
		_, p := memoRecord(t, measureKind, saved)
		return p
	})
}

// TestStoreIgnoredUnderFaults pins the "never memoize faulted ratings"
// rule: a tune with fault injection and a store attached must neither
// consult nor populate the memo table, and its result must equal the same
// faulted tune without a store.
func TestStoreIgnoredUnderFaults(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = fault.Uniform(0.10, 42)
	want := storedTune(t, nil, vcache.New(), 4, cfg)

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	got := storedTune(t, st, vcache.New(), 4, cfg)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("store changed a faulted tune:\nwithout %+v\nwith %+v", want, got)
	}
	if s := st.Stats(); s.MemoHits != 0 || s.MemoMisses != 0 || s.Pending != 0 {
		t.Fatalf("faulted tune touched the memo table: %+v", s)
	}
}

// TestMeasurePerformanceStored pins the measurement memo: a stored
// measurement returns identical cycles to the unmemoized path, records on
// miss, and a reopened store answers without simulating (verified by the
// measure memo hitting instead of missing).
func TestMeasurePerformanceStored(t *testing.T) {
	b := tinyBenchmark()
	m := machine.SPARCII()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache := vcache.New()
	flags := opt.O3().Without(opt.AllFlags()[0])
	wantTS, wantProg, err := MeasurePerformanceStored(b, b.Train, m, flags, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts, prog, err := MeasurePerformanceStored(b, b.Train, m, flags, cache, st)
	if err != nil {
		t.Fatal(err)
	}
	if ts != wantTS || prog != wantProg {
		t.Fatalf("stored measurement (%d, %d) != plain (%d, %d)", ts, prog, wantTS, wantProg)
	}
	if s := st.Stats(); s.Pending != 1 || s.MemoHits != 0 {
		t.Fatalf("cold measurement stats = %+v, want 1 pending / 0 hits", s)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	warm, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts, prog, err = MeasurePerformanceStored(b, b.Train, m, flags, vcache.New(), warm)
	if err != nil {
		t.Fatal(err)
	}
	if ts != wantTS || prog != wantProg {
		t.Fatalf("warm measurement (%d, %d) != plain (%d, %d)", ts, prog, wantTS, wantProg)
	}
	if s := warm.Stats(); s.MemoHits != 1 {
		t.Fatalf("warm measurement stats = %+v, want 1 memo hit", s)
	}
}
