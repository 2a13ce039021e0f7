package core

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"peak/internal/fault"
	"peak/internal/machine"
	"peak/internal/opt"
	"peak/internal/profiling"
	"peak/internal/sched"
	"peak/internal/store"
)

// faultTune runs one tune of the tiny benchmark under plan, with the given
// pool/cache/journal configuration, and returns the result.
func faultTune(t *testing.T, plan *fault.Plan, workers int, noCache bool, j *store.Journal, mutate ...func(*Config)) (*TuneResult, error) {
	t.Helper()
	b := tinyBenchmark()
	m := machine.SPARCII()
	p, err := profiling.Run(b, b.Train, m)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Faults = plan
	cfg.NoCompileCache = noCache
	for _, f := range mutate {
		f(&cfg)
	}
	tu := &Tuner{Bench: b, Mach: m, Dataset: b.Train, Cfg: cfg, Profile: p,
		Pool: sched.New(workers), Journal: j}
	return tu.Tune()
}

// TestFaultDeterminism is the tentpole contract: same seed + same fault
// plan ⇒ byte-identical TuneResult at any worker count, with the compile
// cache on or off.
func TestFaultDeterminism(t *testing.T) {
	plan := fault.Uniform(0.10, 42)
	ref, err := faultTune(t, plan, 1, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ref.CompileRetries+ref.MeasureRetries+ref.JobRetries == 0 {
		t.Error("10% fault rate injected nothing — test exercises no recovery path")
	}
	for _, tc := range []struct {
		name    string
		workers int
		noCache bool
	}{
		{"workers=8/cache", 8, false},
		{"workers=1/nocache", 1, true},
		{"workers=8/nocache", 8, true},
	} {
		got, err := faultTune(t, plan, tc.workers, tc.noCache, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: result differs from workers=1/cache:\n got %+v\nwant %+v", tc.name, got, ref)
		}
	}
}

// TestFaultFreeConfigUnchanged: a nil plan and an all-zero plan are both
// "off" — the recovery machinery must not perturb fault-free results.
func TestFaultFreeConfigUnchanged(t *testing.T) {
	ref, err := faultTune(t, nil, 1, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := faultTune(t, &fault.Plan{Seed: 999}, 1, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("zero-rate plan changed the result:\n got %+v\nwant %+v", got, ref)
	}
}

// TestQuarantineCatchesMiscompiles: with an aggressive miscompile rate,
// verification must quarantine candidates (and tuning must still finish,
// excluding them from the search).
func TestQuarantineCatchesMiscompiles(t *testing.T) {
	plan := &fault.Plan{Seed: 7, MiscompileRate: 0.5}
	res, err := faultTune(t, plan, 4, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) == 0 {
		t.Fatal("50% miscompile rate produced no quarantined flags")
	}
	seen := map[opt.Flag]bool{}
	for _, f := range res.Quarantined {
		if seen[f] {
			t.Errorf("flag %s quarantined twice", f)
		}
		seen[f] = true
	}
	// A quarantined flag's removal was never adopted: it stays enabled in
	// the tuned flag set and is never listed as removed.
	for _, f := range res.Removed {
		if seen[f] {
			t.Errorf("flag %s both quarantined and removed", f)
		}
	}
	if res.VerifyInvocations == 0 {
		t.Error("no verification invocations recorded")
	}
}

// TestRetryExhaustion: permanent faults must surface as errors wrapping
// fault.ErrRetriesExhausted, not hang or panic the tuner.
func TestRetryExhaustion(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan *fault.Plan
	}{
		{"compile", &fault.Plan{Seed: 1, CompileFailRate: 1}},
		{"hang", &fault.Plan{Seed: 1, HangRate: 1}},
		{"panic", &fault.Plan{Seed: 1, PanicRate: 1}},
	} {
		_, err := faultTune(t, tc.plan, 2, false, nil)
		if !errors.Is(err, fault.ErrRetriesExhausted) {
			t.Errorf("%s: err = %v, want ErrRetriesExhausted", tc.name, err)
		}
	}
}

// TestResumeIdentical simulates a crash after each completed round: the
// journal is cut to its first k records and a fresh tuner resumes from it.
// Every resume — including from the final, stopped checkpoint — must
// reproduce the uninterrupted result byte-for-byte.
func TestResumeIdentical(t *testing.T) {
	plan := fault.Uniform(0.05, 2004)
	// A negative improvement threshold forces a removal every round, so the
	// search runs all 8 rounds and leaves one checkpoint per round to cut at.
	multiRound := func(c *Config) { c.ImprovementThreshold = -1 }
	ref, err := faultTune(t, plan, 2, false, nil, multiRound)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	full := filepath.Join(dir, "full.journal")
	j, err := store.NewJournal(full)
	if err != nil {
		t.Fatal(err)
	}
	got, err := faultTune(t, plan, 2, false, j, multiRound)
	j.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("journaling changed the result:\n got %+v\nwant %+v", got, ref)
	}

	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	b := store.JournalBoundaries(data)
	records := len(b) - 1
	if records < 3 {
		t.Fatalf("journal has %d records, need ≥3 to test resume", records)
	}
	for k := 1; k <= records; k++ {
		cut := filepath.Join(dir, "cut.journal")
		if err := os.WriteFile(cut, data[:b[k]], 0o644); err != nil {
			t.Fatal(err)
		}
		rj, err := store.OpenJournal(cut)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		res, err := faultTune(t, plan, 2, false, rj, multiRound)
		rj.Close()
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !reflect.DeepEqual(res, ref) {
			t.Errorf("k=%d: resumed result differs:\n got %+v\nwant %+v", k, res, ref)
		}
	}

	// A torn final record (the crash hit mid-write) must also resume
	// cleanly: OpenJournal drops the partial frame.
	torn := filepath.Join(dir, "torn.journal")
	if err := os.WriteFile(torn, data[:(b[2]+b[3])/2], 0o644); err != nil {
		t.Fatal(err)
	}
	tj, err := store.OpenJournal(torn)
	if err != nil {
		t.Fatal(err)
	}
	res, err := faultTune(t, plan, 2, false, tj, multiRound)
	tj.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Errorf("torn-record resume differs:\n got %+v\nwant %+v", res, ref)
	}
}

// TestAdaptiveQuarantine: the online tuner must also catch miscompiles
// before any production invocation runs them, and stay deterministic.
func TestAdaptiveQuarantine(t *testing.T) {
	b := tinyBenchmark()
	m := machine.SPARCII()
	cfg := DefaultConfig()
	cfg.Window = 10
	cfg.Faults = &fault.Plan{Seed: 11, MiscompileRate: 0.5}
	at, err := NewAdaptiveTuner(b, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := at.Run(b.Ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) == 0 {
		t.Fatal("adaptive: 50% miscompile rate produced no quarantined flags")
	}
	for _, fs := range res.Winners {
		for _, q := range res.Quarantined {
			if fs == q {
				t.Errorf("adaptive: quarantined flag set %s adopted as winner", q)
			}
		}
	}
	again, err := at.Run(b.Ref)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, res) {
		t.Errorf("adaptive faulted run not deterministic:\n got %+v\nwant %+v", again, res)
	}
}
