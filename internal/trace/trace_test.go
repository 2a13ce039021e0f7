package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestNilBufferIsNoOp(t *testing.T) {
	var b *Buffer
	if b.Enabled() {
		t.Fatal("nil buffer reports enabled")
	}
	b.Emit(Event{Kind: KindRate})
	b.Append(NewBuffer())
	if b.Len() != 0 || b.Events() != nil {
		t.Fatal("nil buffer recorded events")
	}
	// Nil tracer accepts everything silently too.
	var tr *Tracer
	tr.Flush(NewBuffer())
	one := NewBuffer()
	one.Emit(Event{})
	tr.Flush(one)
	if tr.Seq() != 0 || tr.Err() != nil || tr.Close() != nil {
		t.Fatal("nil tracer not inert")
	}
}

func TestBufferAppendPreservesOrder(t *testing.T) {
	parent := NewBuffer()
	parent.Emit(Event{Kind: KindTuneStart, Tune: "a"})
	child := NewBuffer()
	child.Emit(Event{Kind: KindRate, Flag: "x"})
	child.Emit(Event{Kind: KindRate, Flag: "y"})
	parent.Append(child)
	parent.Emit(Event{Kind: KindTuneEnd, Tune: "a"})
	got := parent.Events()
	want := []Kind{KindTuneStart, KindRate, KindRate, KindTuneEnd}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i, k := range want {
		if got[i].Kind != k {
			t.Fatalf("event %d: kind %q, want %q", i, got[i].Kind, k)
		}
	}
	if got[1].Flag != "x" || got[2].Flag != "y" {
		t.Fatal("child order not preserved")
	}
}

func TestTracerAssignsSequentialSeq(t *testing.T) {
	var out bytes.Buffer
	tr := NewTracer(&out)
	b := NewBuffer()
	b.Emit(Event{Kind: KindRoundStart, Round: 1})
	b.Emit(Event{Kind: KindRoundEnd, Round: 1})
	tr.Flush(b)
	if b.Len() != 0 {
		t.Fatal("flush did not drain buffer")
	}
	b.Emit(Event{Kind: KindTuneEnd})
	tr.Flush(b)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadEvents(&out)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	for i, ev := range events {
		if ev.Seq != int64(i+1) {
			t.Fatalf("event %d: seq %d, want %d", i, ev.Seq, i+1)
		}
	}
	if tr.Seq() != 3 {
		t.Fatalf("tracer seq %d, want 3", tr.Seq())
	}
}

func TestTracerOutputIsDeterministic(t *testing.T) {
	run := func() string {
		var out bytes.Buffer
		tr := NewTracer(&out)
		b := NewBuffer()
		b.Emit(Event{Kind: KindRate, Tune: "bench/sparc2/CBR/train", Flag: "gcse",
			Eval: 1.25, CIHalf: 0.01, JobCycles: 1000, Counts: map[string]int64{"b": 2, "a": 1}})
		tr.Flush(b)
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d differs:\n%s\nvs\n%s", i, got, first)
		}
	}
	// Map extras must serialize key-sorted for byte-comparability.
	if !strings.Contains(first, `"counts":{"a":1,"b":2}`) {
		t.Fatalf("counts not key-sorted: %s", first)
	}
}

func TestMetricsRegistry(t *testing.T) {
	var nilM *Metrics
	nilM.Add("x", 1)
	nilM.Gauge("y", 2)
	nilM.Merge(NewMetrics())
	if nilM.Enabled() || nilM.Get("x") != 0 || nilM.Snapshot() != nil {
		t.Fatal("nil metrics not inert")
	}

	m := NewMetrics()
	m.Add("core.rounds", 3)
	m.Add("core.rounds", 2)
	m.Gauge("vcache.entries", 10)

	other := NewMetrics()
	other.Add("core.rounds", 1)
	other.Gauge("vcache.entries", 12)
	m.Merge(other)

	if got := m.Get("core.rounds"); got != 6 {
		t.Fatalf("counter merged to %d, want 6", got)
	}
	if got := m.Get("vcache.entries"); got != 12 {
		t.Fatalf("gauge merged to %d, want 12", got)
	}
	snap := m.Snapshot()
	if len(snap) != 2 || snap[0].Name != "core.rounds" || snap[1].Name != "vcache.entries" {
		t.Fatalf("snapshot not name-sorted: %+v", snap)
	}
	if snap[0].Kind != Counter || snap[1].Kind != Gauge {
		t.Fatalf("kinds wrong: %+v", snap)
	}
	text := m.Format()
	if !strings.Contains(text, "core.rounds") || !strings.Contains(text, "6") {
		t.Fatalf("format missing data:\n%s", text)
	}
	if NewMetrics().Format() != "(no metrics recorded)\n" {
		t.Fatal("empty format wrong")
	}
}
