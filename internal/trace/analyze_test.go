package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// synthTrace builds a small but complete tune trace exercising every
// field the analyzer folds.
func synthTrace() []Event {
	const tune = "bench/sparc2/CBR/train"
	return []Event{
		{Kind: KindTuneStart, Tune: tune, Method: "CBR"},
		{Kind: KindRoundStart, Tune: tune, Round: 1, Count: 3},
		{Kind: KindCache, Tune: tune, Round: 1, Flag: "(base)", Outcome: "miss", VerifyCycles: 50},
		{Kind: KindCache, Tune: tune, Round: 1, Flag: "gcse", Outcome: "miss", Retries: 1, RetryCycles: 30, VerifyCycles: 50},
		{Kind: KindCache, Tune: tune, Round: 1, Flag: "ivopts", Outcome: "shared", Leader: "gcse", VerifyCycles: 50},
		{Kind: KindCache, Tune: tune, Round: 1, Flag: "sched", Outcome: "hit"},
		{Kind: KindDedup, Tune: tune, Round: 1, Flag: "ivopts", Leader: "gcse"},
		{Kind: KindRate, Tune: tune, Round: 1, Ordinal: 1, Flag: "(base)", JobCycles: 1000, Invocations: 10},
		{Kind: KindRate, Tune: tune, Round: 1, Ordinal: 2, Flag: "gcse", JobCycles: 900, RetryCycles: 100, Retries: 2, Invocations: 9},
		{Kind: KindRate, Tune: tune, Round: 1, Ordinal: 3, Flag: "sched", JobCycles: 800, Invocations: 8},
		{Kind: KindEscalate, Tune: tune, Round: 1, Flag: "sched", Method: "RBR"},
		{Kind: KindRoundEnd, Tune: tune, Round: 1, Outcome: "removed", Flag: "gcse", Improvement: 0.05, Cycles: 2700},
		{Kind: KindRoundStart, Tune: tune, Round: 2, Count: 2},
		{Kind: KindQuarantine, Tune: tune, Round: 2, Flag: "ivopts"},
		{Kind: KindRoundEnd, Tune: tune, Round: 2, Outcome: "stopped", Cycles: 3000},
		{Kind: KindTuneEnd, Tune: tune, Cycles: 3200, Invocations: 27, Detail: "-O3 -fno-gcse"},
	}
}

func TestAnalyzeBreakdown(t *testing.T) {
	a := Analyze(synthTrace())
	if len(a.Breakdowns) != 1 {
		t.Fatalf("got %d breakdowns, want 1", len(a.Breakdowns))
	}
	b := a.Breakdowns[0]
	if b.Total != 3200 || b.Invocations != 27 {
		t.Fatalf("totals wrong: %+v", b)
	}
	// rating = (1000-0)+(900-100)+(800-0) = 2600
	if b.Rating != 2600 {
		t.Fatalf("rating %d, want 2600", b.Rating)
	}
	// retry = 100 (hangs) + 30 (compile backoff) = 130
	if b.Retry != 130 {
		t.Fatalf("retry %d, want 130", b.Retry)
	}
	if b.Verify != 150 {
		t.Fatalf("verify %d, want 150", b.Verify)
	}
	if b.Overhead != 3200-2600-130-150 {
		t.Fatalf("overhead %d", b.Overhead)
	}
	if b.Misses != 2 || b.Hits != 1 || b.Shared != 1 || b.Dedups != 1 {
		t.Fatalf("compile counts wrong: %+v", b)
	}
	if b.Rounds != 2 || b.Ratings != 3 || b.Quarantines != 1 || b.Escalations != 1 {
		t.Fatalf("search counts wrong: %+v", b)
	}
}

func TestAnalyzeTimeline(t *testing.T) {
	a := Analyze(synthTrace())
	if len(a.Timelines) != 1 {
		t.Fatalf("got %d timelines, want 1", len(a.Timelines))
	}
	tl := a.Timelines[0]
	if tl.Winner != "-O3 -fno-gcse" {
		t.Fatalf("winner %q", tl.Winner)
	}
	if len(tl.Rounds) != 2 {
		t.Fatalf("got %d rounds, want 2", len(tl.Rounds))
	}
	r1 := tl.Rounds[0]
	if r1.Round != 1 || r1.Candidates != 3 || r1.Outcome != "removed" || r1.Flag != "gcse" ||
		r1.Improvement != 0.05 || r1.Cycles != 2700 || r1.Ratings != 3 || r1.Dedups != 1 {
		t.Fatalf("round 1 wrong: %+v", r1)
	}
	r2 := tl.Rounds[1]
	if r2.Round != 2 || r2.Outcome != "stopped" || r2.Cycles != 3000 {
		t.Fatalf("round 2 wrong: %+v", r2)
	}
}

func TestReadEventsRoundTrip(t *testing.T) {
	var out bytes.Buffer
	tr := NewTracer(&out)
	b := NewBuffer()
	for _, ev := range synthTrace() {
		b.Emit(ev)
	}
	tr.Flush(b)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEvents(&out)
	if err != nil {
		t.Fatal(err)
	}
	want := synthTrace()
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range got {
		w := want[i]
		w.Seq = int64(i + 1)
		g := got[i]
		if g.Kind != w.Kind || g.Flag != w.Flag || g.Cycles != w.Cycles ||
			g.JobCycles != w.JobCycles || g.Seq != w.Seq {
			t.Fatalf("event %d: got %+v, want %+v", i, g, w)
		}
	}
}

// TestReadEventsRejectsMidFileGarbage: a malformed line with well-formed
// lines after it is corruption, not a torn tail, and must still error.
func TestReadEventsRejectsMidFileGarbage(t *testing.T) {
	_, err := ReadEvents(strings.NewReader("{\"kind\":\"rate\"}\nnot json\n{\"kind\":\"rate\"}\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("expected line-2 error, got %v", err)
	}
}

// TestReadEventsTornTail covers the crash/interrupt fixtures: an empty
// file, a file that is nothing but a partial line, and a valid trace whose
// final line was torn mid-write all parse cleanly, keeping every complete
// event, and Analyze on the result returns an empty (or partial) analysis
// rather than an error or panic. Trailing blank lines after the torn line
// must not promote it to a mid-file error.
func TestReadEventsTornTail(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  int // complete events expected
	}{
		{"empty file", "", 0},
		{"blank lines only", "\n\n  \n", 0},
		{"only a partial line", `{"kind":"ra`, 0},
		{"torn final line", "{\"kind\":\"rate\",\"tune\":\"t\"}\n{\"kind\":\"rate\",\"tu", 1},
		{"torn line then blanks", "{\"kind\":\"rate\",\"tune\":\"t\"}\n{\"kind\":\"ro\n\n", 1},
	}
	for _, tc := range cases {
		evs, err := ReadEvents(strings.NewReader(tc.input))
		if err != nil {
			t.Errorf("%s: ReadEvents error: %v", tc.name, err)
			continue
		}
		if len(evs) != tc.want {
			t.Errorf("%s: got %d events, want %d", tc.name, len(evs), tc.want)
			continue
		}
		a := Analyze(evs)
		if tc.want == 0 && (len(a.Breakdowns) != 0 || len(a.Timelines) != 0) {
			t.Errorf("%s: Analyze of empty trace not empty: %+v", tc.name, a)
		}
	}
}

// TestAnalyzeUnknownKind: events of a kind this version doesn't know
// (traces from a newer writer) are skipped, not a panic — known events
// around them still fold normally.
func TestAnalyzeUnknownKind(t *testing.T) {
	input := "{\"kind\":\"tune_start\",\"tune\":\"t\"}\n" +
		"{\"kind\":\"wormhole\",\"tune\":\"t\",\"cycles\":12}\n" +
		"{\"kind\":\"tune_end\",\"tune\":\"t\",\"cycles\":99,\"invocations\":3}\n"
	evs, err := ReadEvents(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	a := Analyze(evs)
	if len(a.Breakdowns) != 1 || a.Breakdowns[0].Total != 99 || a.Breakdowns[0].Invocations != 3 {
		t.Fatalf("unknown kind disturbed the analysis: %+v", a.Breakdowns)
	}
}

func TestFormatters(t *testing.T) {
	a := Analyze(synthTrace())
	bd := FormatBreakdown(a.Breakdowns)
	for _, want := range []string{"Where tuning time goes", "bench/sparc2/CBR/train", "2 miss / 1 hit / 1 shared"} {
		if !strings.Contains(bd, want) {
			t.Fatalf("breakdown missing %q:\n%s", want, bd)
		}
	}
	tl := FormatTimeline(a.Timelines)
	for _, want := range []string{"Elimination timeline", "removed", "gcse", "winner: -O3 -fno-gcse"} {
		if !strings.Contains(tl, want) {
			t.Fatalf("timeline missing %q:\n%s", want, tl)
		}
	}
}

// writeEvents renders evs through a Tracer, which numbers them from 1.
func writeEvents(t *testing.T, evs []Event) []byte {
	t.Helper()
	var out bytes.Buffer
	tr := NewTracer(&out)
	b := NewBuffer()
	for _, ev := range evs {
		b.Emit(ev)
	}
	tr.Flush(b)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// sameEvents compares two event lists field by field, reading an empty
// Counts block as absent (the writer omits it either way).
func sameEvents(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if len(x.Counts) == 0 {
			x.Counts = nil
		}
		if len(y.Counts) == 0 {
			y.Counts = nil
		}
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

// FuzzReadEvents feeds ReadEvents arbitrary bytes. It must never panic.
// Whatever it accepts must survive a write through Tracer and a second
// read unchanged (Seq renumbered from 1). And a trace written by Tracer
// followed by the input's first line as a torn, unterminated tail must
// read back with every written event intact.
func FuzzReadEvents(f *testing.F) {
	written := append(synthTrace(),
		Event{Kind: KindCell, Detail: "noise/SWIM/sparc2/drift", Method: "CBR", Count: 40,
			Mu: 0.0123, Sigma: 1e-300, Tier: "memo"},
		Event{Kind: KindTrials, Detail: "noise/sparc2/spikes/CI", CIHalf: -1,
			Counts: map[string]int64{"misses": 3, "trials": 40}})
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := ReadEvents(bytes.NewReader(data))
		if err == nil {
			back, err := ReadEvents(bytes.NewReader(writeEvents(t, evs)))
			if err != nil {
				t.Fatalf("re-reading accepted events: %v", err)
			}
			for i := range evs {
				evs[i].Seq = int64(i + 1)
			}
			if !sameEvents(back, evs) {
				t.Fatalf("accepted events changed in a write/read round trip:\nread  %+v\nagain %+v", evs, back)
			}
		}

		tail, _, _ := bytes.Cut(data, []byte("\n"))
		got, err := ReadEvents(bytes.NewReader(append(writeEvents(t, written), tail...)))
		if err != nil {
			t.Fatalf("valid trace with a torn tail %q: %v", tail, err)
		}
		want := append([]Event(nil), written...)
		for i := range want {
			want[i].Seq = int64(i + 1)
		}
		if len(got) < len(want) || !sameEvents(got[:len(want)], want) {
			t.Fatalf("torn tail %q lost written events: got %d events", tail, len(got))
		}
	})
}
