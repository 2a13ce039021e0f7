package experiments

import (
	"fmt"
	"strings"
	"testing"

	"peak/internal/bench"
	"peak/internal/core"
	"peak/internal/machine"
	"peak/internal/sched"
	"peak/internal/store"
	"peak/internal/trace"
)

func TestNoiseRegimes(t *testing.T) {
	m := machine.SPARCII()
	regimes := Regimes(m)
	want := []string{"baseline", "gauss4x", "spikes", "drift", "bursts"}
	if len(regimes) != len(want) {
		t.Fatalf("regimes = %d, want %d", len(regimes), len(want))
	}
	for i, name := range want {
		if regimes[i].Name != name {
			t.Errorf("regime %d = %s, want %s", i, regimes[i].Name, name)
		}
	}
	if regimes[0].Model != (Regimes(m)[0].Model) {
		t.Error("Regimes is not stable")
	}
	// The baseline regime must be exactly the machine default: tuning
	// with -noise baseline must reproduce tuning without the flag.
	if d := regimes[0].Model; d.Jitter != m.NoiseStdDev || d.SpikeProb != m.OutlierProb {
		t.Errorf("baseline regime %+v does not match machine noise", d)
	}

	if _, ok := RegimeByName(m, "spikes"); !ok {
		t.Error("RegimeByName missed spikes")
	}
	if _, ok := RegimeByName(m, "hurricane"); ok {
		t.Error("RegimeByName accepted junk")
	}
	if names := RegimeNames(m); len(names) != len(want) || names[2] != "spikes" {
		t.Errorf("RegimeNames = %v", names)
	}
}

// TestNoiseReportDeterministic: the report is byte-identical at any worker
// count (the full-workload equivalent is checked by the tier-1 recipe via
// cmd/peak-experiments -noise).
func TestNoiseReportDeterministic(t *testing.T) {
	benches := []*bench.Benchmark{quickBenchmark()}
	m := machine.SPARCII()
	cfg := core.DefaultConfig()
	serial, err := NoiseReport(benches, m, &cfg, core.Env{})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NoiseReport(benches, m, &cfg, core.Env{Pool: sched.New(8)})
	if err != nil {
		t.Fatal(err)
	}
	if serial != parallel {
		t.Error("noise report differs between 1 and 8 workers")
	}

	for _, want := range []string{"QUICK", "baseline", "bursts", "wrong adopts", "Welch-gated"} {
		if !strings.Contains(serial, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestNoiseReportWarmStartByteIdentical pins the experiments half of the
// warm-start contract: the noise report (text and trace) is byte-identical
// with the cell memo off, cold (empty store) and warm (reopened after a
// flush), at 1 and 8 workers — and the warm runs answer every grid cell
// from the memo table (zero misses, no live profiling). Runs under -race
// in the tier-1 recipe.
func TestNoiseReportWarmStartByteIdentical(t *testing.T) {
	benches := []*bench.Benchmark{quickBenchmark()}
	m := machine.SPARCII()
	cfg := core.DefaultConfig()
	dir := t.TempDir()

	run := func(ps *store.Store, workers int) (string, string) {
		tb := trace.NewBuffer()
		report, err := NoiseReport(benches, m, &cfg, core.Env{Pool: sched.New(workers), Store: ps, Trace: tb})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, ev := range tb.Events() {
			fmt.Fprintf(&sb, "%+v\n", ev)
		}
		return report, sb.String()
	}

	wantReport, wantTrace := run(nil, 4)

	cold, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	coldReport, coldTrace := run(cold, 4)
	if coldReport != wantReport || coldTrace != wantTrace {
		t.Fatal("attaching an empty store changed the noise report or trace")
	}
	if st := cold.Stats(); st.Pending == 0 {
		t.Fatalf("cold run recorded no cell memos: %+v", st)
	}
	if err := cold.Flush(); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 8} {
		warm, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		report, traceStr := run(warm, workers)
		if report != wantReport {
			t.Errorf("warm report (%d workers) differs from cold", workers)
		}
		if traceStr != wantTrace {
			t.Errorf("warm trace (%d workers) differs from cold", workers)
		}
		st := warm.Stats()
		if st.MemoHits == 0 || st.MemoMisses != 0 {
			t.Errorf("warm run (%d workers) stats = %+v, want all-hit cell lookups", workers, st)
		}
	}
}
