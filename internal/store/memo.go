package store

import (
	"bytes"
	"encoding"
	"encoding/binary"
)

// memoVersion prefixes every typed memo key; bump it when the simulator,
// the rating pipeline or a payload layout changes meaning, so stale
// records from older builds miss instead of corrupting results.
const memoVersion = "v1"

// Kind names one memo namespace ("rate", "measure", "cell", "profile",
// ...) and types it by its payload V. A V whose pointer implements
// encoding.BinaryMarshaler and encoding.BinaryUnmarshaler owns its record
// layout, which may be of any length (profiling.Profile). Any other V must
// be a fixed-size struct in the encoding/binary sense (no int, string,
// slice or map fields): its field order, little-endian, is the record
// layout. Either way, changing the layout changes the bytes on disk and
// needs a memoVersion bump.
type Kind[V any] string

// Memo is the store's read-through path. With a nil store it only runs
// compute. Otherwise a record under (kind, memoVersion/key) in the frozen
// read set that decodes as a V — through V's own codec, or as exactly
// binary.Size(V) bytes — is returned with hit=true; anything else —
// absent, or stale and undecodable — runs compute and, on success, queues
// the encoded value for the next Flush. Records stay encoded until looked
// up, so Open does no per-kind decoding. compute's value and error are
// returned as they are; a failed compute records nothing.
func Memo[V any](s *Store, kind Kind[V], key string, compute func() (V, error)) (v V, hit bool, err error) {
	if s == nil {
		v, err = compute()
		return v, false, err
	}
	key = memoVersion + "/" + key
	if payload, ok := s.lookupMemo(string(kind), key); ok && decodeMemo(payload, &v) {
		return v, true, nil
	}
	if v, err = compute(); err != nil {
		return v, false, err
	}
	payload, err := encodeMemo(&v)
	if err != nil {
		return v, false, err
	}
	s.RecordMemo(string(kind), key, payload)
	return v, false, nil
}

// decodeMemo decodes payload into *v, reporting success. A failed decode
// may leave *v partly written; Memo then overwrites it with compute's.
func decodeMemo[V any](payload []byte, v *V) bool {
	if u, ok := any(v).(encoding.BinaryUnmarshaler); ok {
		return u.UnmarshalBinary(payload) == nil
	}
	return len(payload) == binary.Size(v) &&
		binary.Read(bytes.NewReader(payload), binary.LittleEndian, v) == nil
}

// encodeMemo encodes *v as decodeMemo reads it.
func encodeMemo[V any](v *V) ([]byte, error) {
	if m, ok := any(v).(encoding.BinaryMarshaler); ok {
		return m.MarshalBinary()
	}
	var buf bytes.Buffer
	err := binary.Write(&buf, binary.LittleEndian, v)
	return buf.Bytes(), err
}
