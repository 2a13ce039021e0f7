package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"peak/internal/fault"
	"peak/internal/machine"
	"peak/internal/profiling"
	"peak/internal/sched"
	"peak/internal/trace"
)

// tracedTune runs one tune of the tiny benchmark on pool with tracing on
// and returns the serialized trace alongside the result.
func tracedTune(t *testing.T, plan *fault.Plan, pool sched.Pool, noCache bool) ([]byte, *TuneResult) {
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
	tb := trace.NewBuffer()
	tu := &Tuner{Bench: b, Mach: m, Dataset: b.Train, Cfg: cfg, Profile: p,
		Pool: pool, Trace: tb}
	res, err := tu.Tune()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	tr := trace.NewTracer(&out)
	tr.Flush(tb)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), res
}

// TestTraceBytesDeterministic is the tentpole contract for traces: the
// serialized trace is byte-identical at any worker count and with the
// compile cache on or off — including under fault injection, whose
// recovery events are the richest part of the schema. The pool's job
// counters (sched.jobs_queued/jobs_done), which include each round's
// compile prefetch Map, must match too.
func TestTraceBytesDeterministic(t *testing.T) {
	for _, plan := range []*fault.Plan{nil, fault.Uniform(0.10, 42)} {
		name := "clean"
		if plan != nil {
			name = "faulted"
		}
		t.Run(name, func(t *testing.T) {
			refPool := sched.New(1)
			ref, refRes := tracedTune(t, plan, refPool, false)
			if len(ref) == 0 {
				t.Fatal("trace is empty")
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
				pool := sched.New(tc.workers)
				got, gotRes := tracedTune(t, plan, pool, tc.noCache)
				if !bytes.Equal(got, ref) {
					t.Errorf("%s: trace differs from workers=1/cache reference", tc.name)
				}
				if q, d := pool.Stats().JobsQueued.Load(), pool.Stats().JobsDone.Load(); q != refPool.Stats().JobsQueued.Load() || d != refPool.Stats().JobsDone.Load() {
					t.Errorf("%s: pool jobs queued/done = %d/%d, want %d/%d", tc.name, q, d,
						refPool.Stats().JobsQueued.Load(), refPool.Stats().JobsDone.Load())
				}
				if !reflect.DeepEqual(gotRes, refRes) {
					t.Errorf("%s: TuneResult differs", tc.name)
				}
			}
		})
	}
}

// TestTraceDoesNotPerturbTuning: a traced tune must produce exactly the
// TuneResult an untraced one does — tracing is an observer, not a
// participant.
func TestTraceDoesNotPerturbTuning(t *testing.T) {
	_, traced := tracedTune(t, nil, sched.New(4), false)
	plain, err := faultTune(t, nil, 4, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(traced, plain) {
		t.Errorf("tracing changed the result:\ntraced: %+v\nplain:  %+v", traced, plain)
	}
}

// TestTraceMatchesLedger cross-checks the event stream against the
// TuneResult counters it narrates.
func TestTraceMatchesLedger(t *testing.T) {
	raw, res := tracedTune(t, fault.Uniform(0.10, 42), sched.New(4), false)
	events, err := trace.ReadEvents(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var starts, ends, rounds, misses, shared, quarantines int
	var rateInv, rateCycles int64
	var rates int
	for _, ev := range events {
		switch ev.Kind {
		case trace.KindTuneStart:
			starts++
		case trace.KindTuneEnd:
			ends++
			if ev.Cycles != res.TuningCycles || ev.Invocations != res.Invocations {
				t.Errorf("tune_end ledger (%d cy, %d inv) != result (%d cy, %d inv)",
					ev.Cycles, ev.Invocations, res.TuningCycles, res.Invocations)
			}
			if ev.Counts["rounds"] != int64(res.Rounds) ||
				ev.Counts["cache_misses"] != res.CacheMisses ||
				ev.Counts["measure_retries"] != int64(res.MeasureRetries) {
				t.Errorf("tune_end counts %v inconsistent with %+v", ev.Counts, res)
			}
		case trace.KindRoundStart:
			rounds++
		case trace.KindRate:
			rates++
			rateInv += ev.Invocations
			rateCycles += ev.JobCycles
		case trace.KindCache:
			switch ev.Outcome {
			case "miss":
				misses++
			case "shared":
				shared++
			case "hit":
			default:
				t.Errorf("cache event with outcome %q", ev.Outcome)
			}
		case trace.KindQuarantine:
			quarantines++
		}
	}
	if starts != 1 || ends != 1 {
		t.Fatalf("%d tune_start / %d tune_end events, want 1/1", starts, ends)
	}
	if rounds != res.Rounds {
		t.Errorf("%d round_start events, result says %d rounds", rounds, res.Rounds)
	}
	// Every distinct flag-set resolution is exactly one fresh cache event.
	if int64(misses+shared) != res.CacheMisses {
		t.Errorf("%d fresh cache events, result says %d misses", misses+shared, res.CacheMisses)
	}
	if shared != res.SharedCode {
		t.Errorf("%d shared cache events, result says %d", shared, res.SharedCode)
	}
	if quarantines != len(res.Quarantined) {
		t.Errorf("%d quarantine events, result says %d", quarantines, len(res.Quarantined))
	}
	// account() and emitRate pair one-to-one, so the job ledgers must sum
	// to the result's totals (rates == VersionsRated likewise).
	if rateInv != res.Invocations {
		t.Errorf("rate events sum to %d invocations, result says %d", rateInv, res.Invocations)
	}
	if rates != res.VersionsRated {
		t.Errorf("%d rate events, result says %d versions rated", rates, res.VersionsRated)
	}
	if rateCycles <= 0 || rateCycles > res.TuningCycles {
		t.Errorf("rate cycles %d outside (0, %d]", rateCycles, res.TuningCycles)
	}
	// The analyzer must reconstruct a coherent breakdown from the stream.
	a := trace.Analyze(events)
	if len(a.Breakdowns) != 1 {
		t.Fatalf("analyzer found %d tunes", len(a.Breakdowns))
	}
	bd := a.Breakdowns[0]
	if bd.Total != res.TuningCycles || bd.Rating <= 0 || bd.Overhead < 0 {
		t.Errorf("incoherent breakdown: %+v", bd)
	}
	if bd.Rounds != res.Rounds || bd.Misses+bd.Shared != int(res.CacheMisses) {
		t.Errorf("breakdown counts inconsistent: %+v vs %+v", bd, res)
	}
}

// TestTuneResultFillMetrics: counters land under the core. prefix and
// accumulate across tunes.
func TestTuneResultFillMetrics(t *testing.T) {
	_, res := tracedTune(t, nil, sched.New(1), false)
	m := trace.NewMetrics()
	res.FillMetrics(m)
	res.FillMetrics(m)
	if got := m.Get("core.tunes"); got != 2 {
		t.Errorf("core.tunes = %d, want 2", got)
	}
	if got := m.Get("core.tuning_cycles"); got != 2*res.TuningCycles {
		t.Errorf("core.tuning_cycles = %d, want %d", got, 2*res.TuningCycles)
	}
	res.FillMetrics(nil) // must not panic
}

// laneTune runs one traced tune of the tiny benchmark on pool — holding a
// lane first when hold is set, as a serve job slot does — and returns the
// serialized trace and the result.
func laneTune(t *testing.T, plan *fault.Plan, force *Method, pool sched.Pool, hold bool) ([]byte, *TuneResult) {
	t.Helper()
	b := tinyBenchmark()
	m := machine.SPARCII()
	p, err := profiling.Run(b, b.Train, m)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Faults = plan
	if hold {
		defer pool.Hold()()
	}
	tb := trace.NewBuffer()
	tu := &Tuner{Bench: b, Mach: m, Dataset: b.Train, Cfg: cfg, Profile: p,
		Force: force, Pool: pool, Trace: tb}
	res, err := tu.Tune()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	tr := trace.NewTracer(&out)
	tr.Flush(tb)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), res
}

// TestTraceBytesLanePool: a round's base rating shares the round's Map
// with the candidate ratings, so the two shapes that break the "base is
// index 0" pattern must still reduce identically on a serial pool and on
// a four-lane pool, held or not: an RBR-forced tune, which has no base
// rating job, and a faulted tune whose base rating draws an injected
// panic and is retried under a derived key.
func TestTraceBytesLanePool(t *testing.T) {
	b := tinyBenchmark()
	prof, err := profiling.Run(b, b.Train, machine.SPARCII())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	baseKey := fmt.Sprintf("round=0/method=%s/base", Consult(prof, &cfg).Methods[0])
	var plan *fault.Plan
	for seed := int64(1); plan == nil; seed++ {
		if p := (&fault.Plan{Seed: seed, PanicRate: 0.3}); p.PanicsJob(baseKey) && !p.PanicsJob(baseKey+"/retry=1") {
			plan = p
		}
	}
	rbr := MethodRBR
	for _, tc := range []struct {
		name  string
		plan  *fault.Plan
		force *Method
	}{
		{"RBR-forced", nil, &rbr},
		{"base-panic", plan, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref, refRes := laneTune(t, tc.plan, tc.force, sched.NewSerial(), false)
			events, err := trace.ReadEvents(bytes.NewReader(ref))
			if err != nil {
				t.Fatal(err)
			}
			var bases, retried int
			for _, ev := range events {
				if ev.Kind == trace.KindRate && ev.Ordinal == 0 {
					bases++
					if ev.Round == 1 && ev.Count > 0 {
						retried++
					}
				}
			}
			switch {
			case tc.force != nil && bases != 0:
				t.Fatalf("RBR tune rated the base %d times", bases)
			case tc.plan != nil && retried != 1:
				t.Fatalf("round 1's base rating was retried in %d events, want 1 — the plan injects no base panic", retried)
			}
			for _, hold := range []bool{false, true} {
				pool := sched.New(4)
				got, gotRes := laneTune(t, tc.plan, tc.force, pool, hold)
				if pool.Stats().Helpers.Load() == 0 {
					t.Errorf("hold=%v: the four-lane pool started no helpers", hold)
				}
				if !bytes.Equal(got, ref) {
					t.Errorf("hold=%v: trace differs from the serial pool's", hold)
				}
				if !reflect.DeepEqual(gotRes, refRes) {
					t.Errorf("hold=%v: TuneResult differs from the serial pool's", hold)
				}
			}
		})
	}
}
