package trace

import (
	"bufio"
	"encoding/json"
	"io"
)

// Tracer serializes events to a JSONL stream: one Event object per line,
// sequence numbers assigned in flush order. Because callers flush Buffers
// in deterministic input order (see the package comment), the byte stream
// a Tracer produces for a run is identical at any worker count.
//
// Tracer is not concurrency-safe by design: it is owned by the driver
// goroutine that performs the deterministic reduction, which is the only
// code allowed to flush.
type Tracer struct {
	w   *bufio.Writer
	enc *json.Encoder
	seq int64
	err error
}

// NewTracer returns a Tracer writing JSONL to w. Call Close to flush
// buffered output.
func NewTracer(w io.Writer) *Tracer {
	bw := bufio.NewWriter(w)
	return &Tracer{w: bw, enc: json.NewEncoder(bw)}
}

// Flush drains b into the stream, assigning each event the next sequence
// number. The buffer is emptied so it can be reused. Nil-safe on both
// receiver and argument; after a write error Flush keeps consuming
// buffers but writes nothing (check Err).
func (t *Tracer) Flush(b *Buffer) {
	if t == nil || b == nil {
		return
	}
	for i := range b.events {
		t.seq++
		b.events[i].Seq = t.seq
		if t.err == nil {
			t.err = t.enc.Encode(&b.events[i])
		}
	}
	b.events = b.events[:0]
}

// Seq returns the number of events written so far.
func (t *Tracer) Seq() int64 {
	if t == nil {
		return 0
	}
	return t.seq
}

// Err returns the first write or encode error, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	return t.err
}

// Close flushes buffered bytes to the underlying writer and returns the
// first error seen (write, encode, or final flush). It does not close
// the underlying writer. Nil-safe.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	if ferr := t.w.Flush(); t.err == nil {
		t.err = ferr
	}
	return t.err
}
