package experiments

import (
	"bytes"
	"testing"

	"peak/internal/bench"
	"peak/internal/core"
	"peak/internal/machine"
	"peak/internal/sched"
	"peak/internal/trace"
	"peak/internal/vcache"
)

// serializeTrace renders a buffer the way the cmds do, so byte equality
// here is byte equality of the -trace files.
func serializeTrace(t *testing.T, tb *trace.Buffer) []byte {
	t.Helper()
	var out bytes.Buffer
	tr := trace.NewTracer(&out)
	tr.Flush(tb)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestFigure7TraceDeterministic: the Figure-7 driver's trace (multiple
// tunes, coarse benchmark jobs nested over the same pool) is
// byte-identical at any worker count and with the compile cache on or
// off — the acceptance contract of the trace layer.
func TestFigure7TraceDeterministic(t *testing.T) {
	m := machine.SPARCII()
	benches := []*bench.Benchmark{quickBenchmark()}
	run := func(workers int, noCache bool) ([]byte, []Fig7Entry, *trace.Metrics) {
		cfg := core.DefaultConfig()
		cfg.NoCompileCache = noCache
		var cache *vcache.Cache
		if !noCache {
			cache = vcache.New()
		}
		tb := trace.NewBuffer()
		mx := trace.NewMetrics()
		entries, err := Figure7(benches, m, &cfg, core.Env{Pool: sched.New(workers), Cache: cache, Trace: tb, Metrics: mx})
		if err != nil {
			t.Fatal(err)
		}
		return serializeTrace(t, tb), entries, mx
	}
	ref, refEntries, refMx := run(1, false)
	if len(ref) == 0 {
		t.Fatal("trace is empty")
	}
	if refMx.Get("core.tunes") != 2*int64(len(refEntries)) {
		t.Errorf("core.tunes = %d, want %d (train+ref per entry)",
			refMx.Get("core.tunes"), 2*len(refEntries))
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
		got, _, gotMx := run(tc.workers, tc.noCache)
		if !bytes.Equal(got, ref) {
			t.Errorf("%s: trace differs from workers=1/cache reference", tc.name)
		}
		if gotMx.Format() != refMx.Format() {
			t.Errorf("%s: metrics differ:\n%s\nvs\n%s", tc.name, gotMx.Format(), refMx.Format())
		}
	}
	// One tune_start per (method, dataset) tune, in input order.
	events, err := trace.ReadEvents(bytes.NewReader(ref))
	if err != nil {
		t.Fatal(err)
	}
	var starts int
	for _, ev := range events {
		if ev.Kind == trace.KindTuneStart {
			starts++
		}
	}
	if starts != 2*len(refEntries) {
		t.Errorf("%d tune_start events, want %d", starts, 2*len(refEntries))
	}
}

// TestNoiseReportTraceDeterministic: the noise grid's cell and trials
// events are byte-identical at any worker count.
func TestNoiseReportTraceDeterministic(t *testing.T) {
	m := machine.SPARCII()
	benches := []*bench.Benchmark{quickBenchmark()}
	run := func(workers int) ([]byte, string) {
		cfg := core.DefaultConfig()
		tb := trace.NewBuffer()
		mx := trace.NewMetrics()
		report, err := NoiseReport(benches, m, &cfg, core.Env{Pool: sched.New(workers), Trace: tb, Metrics: mx})
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(len(benches) * len(Regimes(m))); mx.Get("experiments.noise_cells") != want {
			t.Errorf("noise_cells = %d, want %d", mx.Get("experiments.noise_cells"), want)
		}
		return serializeTrace(t, tb), report
	}
	refTrace, refReport := run(1)
	gotTrace, gotReport := run(8)
	if !bytes.Equal(gotTrace, refTrace) {
		t.Error("noise trace differs between workers=1 and workers=8")
	}
	if gotReport != refReport {
		t.Error("noise report text differs between worker counts")
	}
	events, err := trace.ReadEvents(bytes.NewReader(refTrace))
	if err != nil {
		t.Fatal(err)
	}
	cells, trials := 0, 0
	for _, ev := range events {
		switch ev.Kind {
		case trace.KindCell:
			cells++
		case trace.KindTrials:
			trials++
		}
	}
	if cells != len(benches)*len(Regimes(m)) {
		t.Errorf("%d cell events, want %d", cells, len(benches)*len(Regimes(m)))
	}
	if trials != 2*len(Regimes(m)) {
		t.Errorf("%d trials events, want %d", trials, 2*len(Regimes(m)))
	}
}
