package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"peak/internal/vcache"
)

// fuzzPayload has every field shape the memo kinds use: 8-byte integers
// and floats, a bool, and narrower integers. Its record is 22 bytes.
type fuzzPayload struct {
	A int64
	F float64
	B bool
	U uint32
	I int8
}

// fuzzBoolOff is fuzzPayload.B's byte offset in the record.
const fuzzBoolOff = 16

var fuzzKind Kind[fuzzPayload] = "fuzz"

// frozenStore returns a store on the empty directory dir whose frozen
// read set holds exactly one record, payload under (kind, key), loaded
// through the same parse path as a file on disk.
func frozenStore(t *testing.T, dir, kind, key string, payload []byte) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var e vcache.Encoder
	e.Str(kind)
	e.Str(key)
	e.Str(string(payload))
	s.load(appendRecord(appendHeader(nil, storeMagic), recMemo, e.Buf))
	if s.Stats().Memos != 1 {
		t.Fatalf("frozen store loaded %d memos, want 1", s.Stats().Memos)
	}
	return s
}

func encodePayload(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMemoReadThrough walks Memo's paths: a nil store only computes, a
// miss computes and records the encoded value under the versioned key, a
// failed compute records nothing, a reopened store answers from the
// record without computing, and a payload type with no fixed size is an
// error rather than a record.
func TestMemoReadThrough(t *testing.T) {
	want := fuzzPayload{A: -5, F: math.Inf(-1), B: true, U: 7, I: -1}
	calls := 0
	compute := func() (fuzzPayload, error) { calls++; return want, nil }

	if v, hit, err := Memo(nil, fuzzKind, "k", compute); v != want || hit || err != nil || calls != 1 {
		t.Fatalf("nil store: v=%+v hit=%t err=%v calls=%d", v, hit, err, calls)
	}

	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if _, hit, err := Memo(s, fuzzKind, "bad", func() (fuzzPayload, error) { return want, boom }); hit || err != boom {
		t.Fatalf("failed compute: hit=%t err=%v", hit, err)
	}
	if v, hit, err := Memo(s, fuzzKind, "k", compute); v != want || hit || err != nil || calls != 2 {
		t.Fatalf("miss: v=%+v hit=%t err=%v calls=%d", v, hit, err, calls)
	}
	if st := s.Stats(); st.MemoMisses != 2 || st.Pending != 1 {
		t.Fatalf("after two misses and one record: %+v", st)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	payload, ok := s2.lookupMemo(string(fuzzKind), memoVersion+"/k")
	if !ok || !bytes.Equal(payload, encodePayload(t, want)) {
		t.Fatalf("record under %q = %x, %t; want %x", memoVersion+"/k", payload, ok, encodePayload(t, want))
	}
	if v, hit, err := Memo(s2, fuzzKind, "k", compute); v != want || !hit || err != nil || calls != 2 {
		t.Fatalf("warm: v=%+v hit=%t err=%v calls=%d", v, hit, err, calls)
	}
	if _, ok := s2.lookupMemo(string(fuzzKind), memoVersion+"/bad"); ok {
		t.Fatal("a failed compute was recorded")
	}

	type unsized struct{ S string }
	if _, hit, err := Memo(s2, Kind[unsized]("unsized"), "k", func() (unsized, error) { return unsized{"x"}, nil }); hit || err == nil {
		t.Fatalf("variable-size payload: hit=%t err=%v, want an encode error", hit, err)
	}
	if st := s2.Stats(); st.Pending != 0 {
		t.Fatalf("variable-size payload was recorded: %+v", st)
	}
}

// FuzzMemo feeds arbitrary bytes to Memo as a frozen record. Memo must
// never panic; a record of the wrong size must run compute and return
// its value with hit=false; a record of the right size must hit without
// computing and re-encode to the same bytes — bit-exact for every
// integer and float (NaN payloads included), with the bool byte read as
// nonzero-is-true.
func FuzzMemo(f *testing.F) {
	size := binary.Size(fuzzPayload{})
	want := fuzzPayload{A: 42, F: math.Copysign(0, -1), U: 1}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		s := frozenStore(t, dir, string(fuzzKind), memoVersion+"/k", data)
		calls := 0
		v, hit, err := Memo(s, fuzzKind, "k", func() (fuzzPayload, error) { calls++; return want, nil })
		if err != nil {
			t.Fatalf("Memo: %v", err)
		}
		if len(data) != size {
			if hit || calls != 1 || v != want {
				t.Fatalf("%d-byte record: hit=%t calls=%d v=%+v, want a compute", len(data), hit, calls, v)
			}
			return
		}
		if !hit || calls != 0 {
			t.Fatalf("%d-byte record: hit=%t calls=%d, want a hit", len(data), hit, calls)
		}
		canon := bytes.Clone(data)
		if canon[fuzzBoolOff] != 0 {
			canon[fuzzBoolOff] = 1
		}
		if got := encodePayload(t, v); !bytes.Equal(got, canon) {
			t.Fatalf("record %x decoded to %+v, which re-encodes to %x", data, v, got)
		}
	})
}
