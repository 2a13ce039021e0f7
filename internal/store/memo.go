package store

import (
	"bytes"
	"encoding/binary"
)

// memoVersion prefixes every typed memo key; bump it when the simulator,
// the rating pipeline or a payload layout changes meaning, so stale
// records from older builds miss instead of corrupting results.
const memoVersion = "v1"

// Kind names one memo namespace ("rate", "measure", "cell", ...) and types
// it by its payload V. V must be a fixed-size struct in the
// encoding/binary sense (no int, string, slice or map fields): its field
// order, little-endian, is the record layout, so reordering or retyping a
// field changes the bytes on disk and needs a memoVersion bump.
type Kind[V any] string

// Memo is the store's read-through path. With a nil store it only runs
// compute. Otherwise a record of exactly binary.Size(V) bytes under
// (kind, memoVersion/key) in the frozen read set decodes and is returned
// with hit=true; anything else — absent, or stale with the wrong size —
// runs compute and, on success, queues the encoded value for the next
// Flush. compute's value and error are returned as they are; a failed
// compute records nothing.
func Memo[V any](s *Store, kind Kind[V], key string, compute func() (V, error)) (v V, hit bool, err error) {
	if s == nil {
		v, err = compute()
		return v, false, err
	}
	key = memoVersion + "/" + key
	if payload, ok := s.lookupMemo(string(kind), key); ok && len(payload) == binary.Size(v) {
		if binary.Read(bytes.NewReader(payload), binary.LittleEndian, &v) == nil {
			return v, true, nil
		}
	}
	if v, err = compute(); err != nil {
		return v, false, err
	}
	var buf bytes.Buffer
	if err = binary.Write(&buf, binary.LittleEndian, v); err != nil {
		return v, false, err
	}
	s.RecordMemo(string(kind), key, buf.Bytes())
	return v, false, nil
}
