package core

import (
	"math/rand"
	"testing"

	"peak/internal/bench"
	"peak/internal/ir"
	"peak/internal/irbuild"
	"peak/internal/machine"
	"peak/internal/opt"
	"peak/internal/profiling"
	"peak/internal/sim"
)

func TestAdaptiveTunerOnline(t *testing.T) {
	b := tinyBenchmark()
	// Longer run so exploration amortizes.
	b.Train.NumInvocations = 3000
	m := machine.PentiumIV()
	cfg := DefaultConfig()
	at, err := NewAdaptiveTuner(b, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	at.Window = 10
	res, err := at.Run(b.Train)
	if err != nil {
		t.Fatal(err)
	}
	if res.Invocations != 3000 || res.ContextsSeen != 1 {
		t.Errorf("invocations=%d contexts=%d", res.Invocations, res.ContextsSeen)
	}
	if res.VersionsTried == 0 {
		t.Error("no exploration happened")
	}
	// The adaptive run (including exploration overhead) must not be much
	// worse than running -O3 throughout, and the adopted winner must not
	// be worse than -O3.
	baseTS, _, err := MeasurePerformanceStored(b, b.Train, m, opt.O3(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if float64(res.TotalCycles) > 1.1*float64(baseTS) {
		t.Errorf("adaptive run cost %d vs -O3 %d: exploration overhead too high",
			res.TotalCycles, baseTS)
	}
	for key, fs := range res.Winners {
		tuned, _, err := MeasurePerformanceStored(b, b.Train, m, fs, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if float64(tuned) > 1.01*float64(baseTS) {
			t.Errorf("context %q adopted a slower version (%d vs %d)", key, tuned, baseTS)
		}
	}
}

// TestAdaptiveDiscoversUnprofiledContexts: the production run presents a
// context the offline profile never observed; the adaptive tuner must
// still key it, explore it, and keep separate state for it (the paper's
// motivation for online tuning, §6).
func TestAdaptiveDiscoversUnprofiledContexts(t *testing.T) {
	b := tinyBenchmark() // profile sees only n=64
	m := machine.SPARCII()
	cfg := DefaultConfig()
	at, err := NewAdaptiveTuner(b, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	at.Window = 8

	prod := &bench.Dataset{
		Name: "prod", NumInvocations: 2400,
		Setup: b.Train.Setup,
		Args: func(i int, mem *sim.Memory, rng *rand.Rand) []float64 {
			if i%2 == 0 {
				return []float64{64} // the profiled context
			}
			return []float64{24} // never profiled
		},
	}
	res, err := at.Run(prod)
	if err != nil {
		t.Fatal(err)
	}
	if res.ContextsSeen != 2 {
		t.Fatalf("contexts seen = %d, want 2 (one unprofiled)", res.ContextsSeen)
	}
	if len(res.Winners) != 2 {
		t.Errorf("winners = %d, want per-context entries", len(res.Winners))
	}
}

// sparseWriterBenchmark reads a large table but writes only a handful of
// cells per invocation — the case the §2.4.2 inspector optimization exists
// for.
func sparseWriterBenchmark() *bench.Benchmark {
	prog := ir.NewProgram()
	prog.AddArray("big", ir.F64, 8192)
	b := irbuild.NewFunc("sparse")
	b.ScalarParam("n", ir.I64).ScalarParam("slot", ir.I64).Local("s", ir.F64)
	fn := b.Body(
		b.For("i", b.I(0), b.V("n"), 1,
			b.Set(b.V("s"), b.FAdd(b.V("s"), b.At("big", b.V("i")))),
		),
		b.Set(b.At("big", b.V("slot")), b.V("s")),
		b.Ret(b.V("s")),
	)
	prog.AddFunc(fn)
	mkDS := func(name string, inv int) *bench.Dataset {
		return &bench.Dataset{
			Name: name, NumInvocations: inv,
			Setup: func(mem *sim.Memory, rng *rand.Rand) {
				d := mem.Get("big").Data
				for i := range d {
					d[i] = rng.Float64()
				}
			},
			Args: func(i int, mem *sim.Memory, rng *rand.Rand) []float64 {
				return []float64{128, float64(4096 + i%1024)}
			},
		}
	}
	return &bench.Benchmark{
		Name: "SPARSE", TSName: "sparse", Class: bench.FP,
		Prog: prog, TS: b.Fn(),
		Train: mkDS("train", 800), Ref: mkDS("ref", 800),
		NonTSCycles: 50_000, PaperInvocations: "(test)",
	}
}

// TestRBRInspectorCutsOverhead: with the write-log inspector, RBR tuning of
// a sparse writer must cost far less than with whole-array save/restore,
// while reaching an equivalent result.
func TestRBRInspectorCutsOverhead(t *testing.T) {
	b := sparseWriterBenchmark()
	m := machine.SPARCII()
	p, err := profiling.Run(b, b.Train, m)
	if err != nil {
		t.Fatal(err)
	}
	if p.ModifiedInputElems < 8000 {
		t.Fatalf("Modified_Input = %d elems; the workload lost its point", p.ModifiedInputElems)
	}
	run := func(inspector bool) *TuneResult {
		cfg := DefaultConfig()
		cfg.RBRInspector = inspector
		forced := MethodRBR
		tu := &Tuner{Bench: b, Mach: m, Dataset: b.Train, Cfg: cfg, Profile: p, Force: &forced}
		res, err := tu.Tune()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(false)
	insp := run(true)
	if insp.TuningCycles*2 >= plain.TuningCycles {
		t.Errorf("inspector tuning %d cycles not well below snapshot tuning %d",
			insp.TuningCycles, plain.TuningCycles)
	}
	// Both must converge on results no worse than -O3.
	for _, res := range []*TuneResult{plain, insp} {
		base, _, _ := MeasurePerformanceStored(b, b.Train, m, opt.O3(), nil, nil)
		tuned, _, _ := MeasurePerformanceStored(b, b.Train, m, res.Best, nil, nil)
		if float64(tuned) > 1.01*float64(base) {
			t.Errorf("tuned worse than -O3 (%d vs %d)", tuned, base)
		}
	}
}

// TestInspectorUndoExact: write-log undo must restore memory bit-exactly.
func TestInspectorUndoExact(t *testing.T) {
	b := sparseWriterBenchmark()
	m := machine.SPARCII()
	v, err := opt.Compile(b.Prog, b.TS, opt.O3(), m)
	if err != nil {
		t.Fatal(err)
	}
	mem := sim.NewMemory(b.Prog)
	rng := rand.New(rand.NewSource(5))
	b.Train.Setup(mem, rng)
	before := mem.Snapshot([]string{"big"})

	runner := sim.NewRunner(m, mem, 5)
	runner.RecordWrites = true
	if _, _, err := runner.Run(v, []float64{128, 4500}); err != nil {
		t.Fatal(err)
	}
	runner.RecordWrites = false
	if len(runner.WriteLog) == 0 {
		t.Fatal("no writes recorded")
	}
	mem.UndoWrites(runner.WriteLog)
	after := mem.Snapshot([]string{"big"})
	for i := range before["big"] {
		if before["big"][i] != after["big"][i] {
			t.Fatalf("element %d not restored: %v vs %v", i, before["big"][i], after["big"][i])
		}
	}
}
