package fault

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"peak/internal/machine"
	"peak/internal/opt"
	"peak/internal/sim"
	"peak/internal/workloads"
)

// Fault decisions must be pure functions of (seed, identity): repeated
// queries agree, and distinct identities draw independently.
func TestDecisionsAreIdentityPure(t *testing.T) {
	p := Uniform(0.3, 42)
	keys := []string{"1/ts/flags=a/p4", "1/ts/flags=b/p4", "2/ts/flags=a/p4"}
	for _, k := range keys {
		if got, again := p.CompileFailures(k), p.CompileFailures(k); got != again {
			t.Errorf("CompileFailures(%q) unstable: %d then %d", k, got, again)
		}
		if got, again := p.Miscompiles(k), p.Miscompiles(k); got != again {
			t.Errorf("Miscompiles(%q) unstable: %v then %v", k, got, again)
		}
		if got, again := p.PanicsJob(k), p.PanicsJob(k); got != again {
			t.Errorf("PanicsJob(%q) unstable: %v then %v", k, got, again)
		}
	}
	// A different seed must shuffle the victims (sanity: at rate 0.3 over
	// many keys, two seeds agreeing everywhere is astronomically unlikely).
	q := Uniform(0.3, 43)
	same := true
	for i := 0; i < 200 && same; i++ {
		k := keys[0] + string(rune('a'+i%26))
		same = p.Miscompiles(k) == q.Miscompiles(k) && p.PanicsJob(k) == q.PanicsJob(k)
	}
	if same {
		t.Error("seeds 42 and 43 produced identical fault decisions")
	}
}

func TestCompileFailuresBounded(t *testing.T) {
	p := &Plan{Seed: 7, CompileFailRate: 1} // always fails
	if got, want := p.CompileFailures("any"), p.CompileRetries()+1; got != want {
		t.Errorf("CompileFailures at rate 1 = %d, want capped %d", got, want)
	}
	if (&Plan{Seed: 7}).CompileFailures("any") != 0 {
		t.Error("zero rate must inject no compile failures")
	}
}

func TestMeasureStreamExhaustion(t *testing.T) {
	p := &Plan{Seed: 9, HangRate: 1, MaxMeasureRetries: 2}
	s := p.MeasureStream("job")
	retries, cost, err := s.HangRetries()
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("HangRetries at rate 1: err = %v, want ErrRetriesExhausted", err)
	}
	if retries != 3 {
		t.Errorf("retries = %d, want 3 (bound 2 exceeded)", retries)
	}
	wantCost := 3*p.Timeout() + p.Backoff(0) + p.Backoff(1) + p.Backoff(2)
	if cost != wantCost {
		t.Errorf("cost = %d, want %d", cost, wantCost)
	}
	if s2 := (&Plan{Seed: 9}).MeasureStream("job"); s2 != nil {
		t.Error("zero hang rate must return a nil stream")
	}
	var nilStream *MeasureStream
	if r, c, err := nilStream.HangRetries(); r != 0 || c != 0 || err != nil {
		t.Error("nil MeasureStream must be a no-op")
	}
}

// Two identical streams must replay the same hang sequence; this is what
// makes per-job hang faults reproducible across runs and worker counts.
func TestMeasureStreamDeterminism(t *testing.T) {
	p := Uniform(0.4, 11)
	a, b := p.MeasureStream("round=1/flag=gcse"), p.MeasureStream("round=1/flag=gcse")
	for i := 0; i < 50; i++ {
		ra, ca, ea := a.HangRetries()
		rb, cb, eb := b.HangRetries()
		if ra != rb || ca != cb || (ea == nil) != (eb == nil) {
			t.Fatalf("draw %d diverged: (%d,%d,%v) vs (%d,%d,%v)", i, ra, ca, ea, rb, cb, eb)
		}
	}
}

// Corrupt must be deterministic in seed and actually change the computed
// output of a real compiled workload.
func TestCorruptDeterministicAndEffective(t *testing.T) {
	all := workloads.All()
	if len(all) == 0 {
		t.Fatal("no workloads registered")
	}
	b := all[0]
	m := machine.PentiumIV()
	clean, err := opt.Compile(b.Prog, b.TS, opt.O3(), m)
	if err != nil {
		t.Fatal(err)
	}
	// Two independent compiles may legally differ in temp-register naming,
	// so determinism is checked on clones of ONE compile: what Corrupt
	// guarantees is that, given the same code and seed, it picks the same
	// site — which also holds across processes, because site selection
	// keys on opcode positions, not register names.
	v1 := &sim.Version{LF: clean.LF.Clone()}
	v2 := &sim.Version{LF: clean.LF.Clone()}
	if !Corrupt(v1, 1234) || !Corrupt(v2, 1234) {
		t.Fatal("Corrupt found no corruptible instruction in a real workload")
	}
	if !reflect.DeepEqual(v1.LF, v2.LF) {
		t.Error("same seed produced different corruptions")
	}
	if reflect.DeepEqual(v1.LF, clean.LF) {
		t.Error("Corrupt left the function unchanged")
	}
	v3 := &sim.Version{LF: clean.LF.Clone()}
	if !Corrupt(v3, 99) {
		t.Fatal("Corrupt with another seed found no site")
	}
}

func TestPlanFingerprint(t *testing.T) {
	if (&Plan{}).Fingerprint() != 0 || (*Plan)(nil).Fingerprint() != 0 {
		t.Error("zero plan must fingerprint to 0")
	}
	a, b := Uniform(0.05, 1), Uniform(0.05, 2)
	if a.Fingerprint() == 0 || a.Fingerprint() == b.Fingerprint() {
		t.Error("distinct plans must have distinct nonzero fingerprints")
	}
	if a.Fingerprint() != Uniform(0.05, 1).Fingerprint() {
		t.Error("fingerprint must be stable")
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "peak.journal")
	j, err := NewJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Kind: "round", ID: "ART/p4", Round: 0, State: []byte(`{"x":1}`)},
		{Kind: "round", ID: "SWIM/p4", Round: 0, State: []byte(`{"y":2}`)},
		{Kind: "round", ID: "ART/p4", Round: 1, Stopped: true, State: []byte(`{"x":3}`)},
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 2 {
		t.Fatalf("Len = %d, want 2 checkpoint IDs", j2.Len())
	}
	art, ok := j2.Latest("ART/p4")
	if !ok || art.Round != 1 || !art.Stopped || string(art.State) != `{"x":3}` {
		t.Errorf("Latest(ART/p4) = %+v, %v", art, ok)
	}
	swim, ok := j2.Latest("SWIM/p4")
	if !ok || swim.Round != 0 {
		t.Errorf("Latest(SWIM/p4) = %+v, %v", swim, ok)
	}
}

// A journal truncated mid-record (the kill-during-write case) must load every
// intact record and accept appends cleanly afterwards.
func TestJournalTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "peak.journal")
	j, err := NewJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Kind: "round", ID: "A", Round: 3}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a torn write: the first bytes of a record frame.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("\x04\x40\x00\x00\x00{\"kind\":\"round\",\"id\":\"A\",\"rou"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := j2.Latest("A")
	if !ok || rec.Round != 3 {
		t.Fatalf("Latest(A) after torn tail = %+v, %v; want round 3", rec, ok)
	}
	if err := j2.Append(Record{Kind: "round", ID: "A", Round: 4}); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if rec, ok := j3.Latest("A"); !ok || rec.Round != 4 {
		t.Fatalf("Latest(A) after reopen = %+v, %v; want round 4", rec, ok)
	}
}

func TestMemoryJournal(t *testing.T) {
	j := NewMemoryJournal()
	if err := j.Append(Record{ID: "x", Round: 1}); err != nil {
		t.Fatal(err)
	}
	if rec, ok := j.Latest("x"); !ok || rec.Round != 1 {
		t.Fatal("memory journal lost its record")
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}
