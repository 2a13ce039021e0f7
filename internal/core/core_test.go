package core

import (
	"math"
	"math/rand"
	"testing"

	"peak/internal/analysis"
	"peak/internal/bench"
	"peak/internal/ir"
	"peak/internal/irbuild"
	"peak/internal/machine"
	"peak/internal/opt"
	"peak/internal/profiling"
	"peak/internal/sim"
)

func TestMethodNames(t *testing.T) {
	for _, m := range []Method{MethodCBR, MethodMBR, MethodRBR, MethodAVG, MethodWHL} {
		got, ok := ParseMethod(m.String())
		if !ok || got != m {
			t.Errorf("ParseMethod(%s) = %v, %v", m, got, ok)
		}
	}
	if _, ok := ParseMethod("XYZ"); ok {
		t.Error("ParseMethod accepted junk")
	}
}

func TestRatingComparison(t *testing.T) {
	// Time-like methods: lower EVAL is better.
	a := Rating{Method: MethodCBR, EVAL: 90}
	b := Rating{Method: MethodCBR, EVAL: 100}
	if !a.Better(b) || b.Better(a) {
		t.Error("CBR: lower EVAL must win")
	}
	if imp := a.ImprovementOver(99); math.Abs(imp-0.1) > 1e-9 {
		t.Errorf("ImprovementOver = %v, want 0.1", imp)
	}
	// RBR: higher ratio is better; the rating itself is the improvement.
	r1 := Rating{Method: MethodRBR, EVAL: 1.2}
	r2 := Rating{Method: MethodRBR, EVAL: 0.9}
	if !r1.Better(r2) || r2.Better(r1) {
		t.Error("RBR: higher EVAL must win")
	}
	if imp := r1.ImprovementOver(math.NaN()); math.Abs(imp-0.2) > 1e-9 {
		t.Errorf("RBR ImprovementOver = %v, want 0.2", imp)
	}
	if imp := (Rating{Method: MethodAVG, EVAL: 0}).ImprovementOver(50); imp != 0 {
		t.Errorf("zero EVAL improvement = %v, want 0", imp)
	}
}

// synthProfile builds profiles by hand to exercise consultant paths.
func synthProfile(mutate func(p *profiling.Profile)) *profiling.Profile {
	p := &profiling.Profile{
		Invocations:        1000,
		MeanCycles:         500,
		ContextSet:         &analysis.ContextSet{Applicable: true},
		ContextArraysConst: true,
		Contexts: map[string]*profiling.ContextStat{
			"a": {Key: "a", Count: 800, TotalCycles: 400000},
			"b": {Key: "b", Count: 200, TotalCycles: 100000},
		},
		DominantContext: "a",
		Model: &analysis.ComponentModel{
			Components: []analysis.Component{
				{Rep: 1, AvgCount: 50},
				{Rep: 0, Constant: true, AvgCount: 1},
			},
			KeepCounters: map[int]bool{0: true, 1: true},
		},
		ModelVar: 0.001,
		Effects:  &analysis.MemEffects{Reads: map[string]bool{}, Writes: map[string]bool{}},
	}
	if mutate != nil {
		mutate(p)
	}
	return p
}

func TestConsultantOrderAndReasons(t *testing.T) {
	cfg := DefaultConfig()

	app := Consult(synthProfile(nil), &cfg)
	if got := app.String(); got != "CBR,MBR,RBR" {
		t.Errorf("fully applicable order = %s, want CBR,MBR,RBR", got)
	}
	if app.Chosen() != MethodCBR {
		t.Errorf("chosen = %s, want CBR", app.Chosen())
	}

	app = Consult(synthProfile(func(p *profiling.Profile) {
		p.ContextSet.Applicable = false
		p.ContextSet.Reason = "non-scalar"
	}), &cfg)
	if app.Has(MethodCBR) || app.CBRReason == "" {
		t.Error("non-scalar context vars must reject CBR with a reason")
	}
	if app.Chosen() != MethodMBR {
		t.Errorf("chosen = %s, want MBR", app.Chosen())
	}

	app = Consult(synthProfile(func(p *profiling.Profile) {
		p.ContextArraysConst = false
		p.ContextSet.NeedConstArrays = []string{"tab"}
	}), &cfg)
	if app.Has(MethodCBR) {
		t.Error("mutated control arrays must reject CBR")
	}

	app = Consult(synthProfile(func(p *profiling.Profile) {
		for i := 0; i < cfg.MaxContexts+5; i++ {
			k := string(rune('c' + i))
			p.Contexts[k] = &profiling.ContextStat{Key: k, Count: 1, TotalCycles: 10}
		}
	}), &cfg)
	if app.Has(MethodCBR) {
		t.Error("too many contexts must reject CBR (the MGRID case)")
	}

	app = Consult(synthProfile(func(p *profiling.Profile) {
		p.ModelVar = 0.5
	}), &cfg)
	if app.Has(MethodMBR) {
		t.Error("bad model fit must reject MBR (the integer-code case)")
	}

	app = Consult(synthProfile(func(p *profiling.Profile) {
		var comps []analysis.Component
		for i := 0; i < cfg.MaxComponents+2; i++ {
			comps = append(comps, analysis.Component{Rep: i})
		}
		p.Model.Components = comps
	}), &cfg)
	if app.Has(MethodMBR) {
		t.Error("too many components must reject MBR")
	}

	// Constant-only model stays applicable (degenerates to averaging).
	app = Consult(synthProfile(func(p *profiling.Profile) {
		p.Model.Components = []analysis.Component{{Rep: 0, Constant: true, AvgCount: 1}}
		p.ModelVar = 1.0
	}), &cfg)
	if !app.Has(MethodMBR) {
		t.Error("constant-only model must keep MBR applicable")
	}

	// RBR is always last-resort applicable.
	app = Consult(synthProfile(func(p *profiling.Profile) {
		p.ContextSet.Applicable = false
		p.Model = nil
	}), &cfg)
	if app.Chosen() != MethodRBR || len(app.Methods) != 1 {
		t.Errorf("methods = %s, want RBR only", app)
	}
}

func TestMeanSamplesOutlierRobustness(t *testing.T) {
	cfg := DefaultConfig()
	var ms meanSamples
	for i := 0; i < cfg.Window; i++ {
		ms.add(100 + float64(i%5))
	}
	ms.add(100000) // an interrupt spike
	r := ms.evalVar(&cfg, MethodAVG)
	if r.Outliers != 1 {
		t.Errorf("outliers = %d, want 1", r.Outliers)
	}
	if r.EVAL > 110 {
		t.Errorf("EVAL = %v, spike not rejected", r.EVAL)
	}
}

// tinyBenchmark is a fast, well-behaved workload for engine tests: one
// context, regular control flow.
func tinyBenchmark() *bench.Benchmark {
	prog := ir.NewProgram()
	prog.AddArray("tv", ir.F64, 128)
	b := irbuild.NewFunc("tiny")
	b.ScalarParam("n", ir.I64).Local("s", ir.F64)
	fn := b.Body(
		b.For("i", b.I(0), b.V("n"), 1,
			b.Set(b.V("s"), b.FAdd(b.V("s"),
				b.FMul(b.At("tv", b.V("i")), b.At("tv", b.V("i"))))),
			b.Set(b.At("tv", b.V("i")), b.FMul(b.V("s"), b.F(0.5))),
		),
		b.Ret(b.V("s")),
	)
	prog.AddFunc(fn)
	mkDS := func(name string, inv int) *bench.Dataset {
		return &bench.Dataset{
			Name: name, NumInvocations: inv,
			Setup: func(mem *sim.Memory, rng *rand.Rand) {
				d := mem.Get("tv").Data
				for i := range d {
					d[i] = rng.Float64()
				}
			},
			Args: func(i int, mem *sim.Memory, rng *rand.Rand) []float64 {
				return []float64{64}
			},
		}
	}
	return &bench.Benchmark{
		Name: "TINY", TSName: "tiny", Class: bench.FP,
		Prog: prog, TS: b.Fn(),
		Train: mkDS("train", 300), Ref: mkDS("ref", 600),
		NonTSCycles: 100_000, PaperInvocations: "(test)",
	}
}

func TestTunerEndToEnd(t *testing.T) {
	b := tinyBenchmark()
	m := machine.SPARCII()
	p, err := profiling.Run(b, b.Train, m)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	tu := &Tuner{Bench: b, Mach: m, Dataset: b.Train, Cfg: cfg, Profile: p}
	res, err := tu.Tune()
	if err != nil {
		t.Fatal(err)
	}
	// Every flag must have been considered each round — rated, or skipped
	// because its code fingerprinted identically to the base or an
	// already-rated candidate (the dedup layer).
	if res.TuningCycles <= 0 || res.ProgramRuns < 1 ||
		res.VersionsRated+res.DedupSkips < opt.NumFlags {
		t.Errorf("suspicious ledger: %+v", res)
	}
	if res.CacheLookups <= 0 || res.CacheMisses <= 0 ||
		res.CacheHits != res.CacheLookups-res.CacheMisses {
		t.Errorf("inconsistent cache ledger: %+v", res)
	}
	// The tuned version must not be worse than -O3 on the tuning dataset.
	base, _, err := MeasurePerformanceStored(b, b.Train, m, opt.O3(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tuned, _, err := MeasurePerformanceStored(b, b.Train, m, res.Best, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if float64(tuned) > float64(base)*1.01 {
		t.Errorf("tuned (%d) worse than -O3 (%d)", tuned, base)
	}
}

func TestWHLConsumesOneRunPerVersion(t *testing.T) {
	b := tinyBenchmark()
	m := machine.SPARCII()
	p, err := profiling.Run(b, b.Train, m)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	forced := MethodWHL
	tu := &Tuner{Bench: b, Mach: m, Dataset: b.Train, Cfg: cfg, Profile: p, Force: &forced}
	res, err := tu.Tune()
	if err != nil {
		t.Fatal(err)
	}
	if res.ProgramRuns != res.VersionsRated {
		t.Errorf("WHL: %d runs for %d versions, want 1:1", res.ProgramRuns, res.VersionsRated)
	}
	if res.MethodUsed != MethodWHL {
		t.Errorf("method = %s, want WHL", res.MethodUsed)
	}
}

func TestTuningTimeOrdering(t *testing.T) {
	// The paper's central claim: the rating methods tune in far less time
	// than WHL on the same search (Figure 7 c–d).
	b := tinyBenchmark()
	m := machine.SPARCII()
	p, err := profiling.Run(b, b.Train, m)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	times := map[Method]int64{}
	for _, method := range []Method{MethodCBR, MethodWHL} {
		forced := method
		tu := &Tuner{Bench: b, Mach: m, Dataset: b.Train, Cfg: cfg, Profile: p, Force: &forced}
		res, err := tu.Tune()
		if err != nil {
			t.Fatal(err)
		}
		times[method] = res.TuningCycles
	}
	if times[MethodCBR]*2 >= times[MethodWHL] {
		t.Errorf("CBR tuning time %d not well below WHL %d", times[MethodCBR], times[MethodWHL])
	}
}

// noisyBenchmark has a single context but strongly data-dependent timing,
// so CBR cannot converge and the engine must fall back to the next method
// (paper §3: "if the system cannot achieve enough accuracy ... it switches
// to the next applicable rating method").
func noisyBenchmark() *bench.Benchmark {
	prog := ir.NewProgram()
	prog.AddArray("nd", ir.F64, 256)
	b := irbuild.NewFunc("noisy")
	b.ScalarParam("n", ir.I64).Local("s", ir.F64)
	fn := b.Body(
		b.For("i", b.I(0), b.V("n"), 1,
			b.If(b.FGt(b.At("nd", b.V("i")), b.F(0)),
				// Expensive path: taken for a data-dependent subset.
				b.Set(b.V("s"), b.FAdd(b.V("s"),
					b.Call("sqrt", b.Call("abs", b.At("nd", b.V("i")))))),
			),
		),
		b.Ret(b.V("s")),
	)
	prog.AddFunc(fn)
	mkDS := func(name string, inv int) *bench.Dataset {
		return &bench.Dataset{
			Name: name, NumInvocations: inv,
			Setup: func(mem *sim.Memory, rng *rand.Rand) {},
			Args: func(i int, mem *sim.Memory, rng *rand.Rand) []float64 {
				d := mem.Get("nd").Data
				// Rewrite everything: the taken fraction swings wildly.
				bias := rng.Float64()*2 - 1
				for k := range d {
					d[k] = rng.NormFloat64() + bias
				}
				return []float64{192}
			},
		}
	}
	return &bench.Benchmark{
		Name: "NOISY", TSName: "noisy", Class: bench.FP,
		Prog: prog, TS: b.Fn(),
		Train: mkDS("train", 2000), Ref: mkDS("ref", 2000),
		NonTSCycles: 100_000, PaperInvocations: "(test)",
	}
}

func TestMethodSwitchingOnNonConvergence(t *testing.T) {
	b := noisyBenchmark()
	m := machine.SPARCII()
	p, err := profiling.Run(b, b.Train, m)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	app := Consult(p, &cfg)
	if app.Chosen() != MethodCBR {
		t.Skipf("consultant chose %s; switching path needs CBR first (%s / %s)",
			app.Chosen(), app.CBRReason, app.MBRReason)
	}
	tu := &Tuner{Bench: b, Mach: m, Dataset: b.Train, Cfg: cfg, Profile: p}
	res, err := tu.Tune()
	if err != nil {
		t.Fatal(err)
	}
	if res.MethodSwitches == 0 || res.MethodUsed == MethodCBR {
		t.Errorf("expected a method switch away from CBR, got used=%s switches=%d",
			res.MethodUsed, res.MethodSwitches)
	}
}

func TestMeasurePerformanceDeterministic(t *testing.T) {
	b := tinyBenchmark()
	m := machine.PentiumIV()
	a1, p1, err := MeasurePerformanceStored(b, b.Train, m, opt.O3(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	a2, p2, err := MeasurePerformanceStored(b, b.Train, m, opt.O3(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 || p1 != p2 {
		t.Error("MeasurePerformance must be deterministic")
	}
	if p1 != a1+b.NonTSCycles {
		t.Errorf("program cycles %d != TS %d + NonTS %d", p1, a1, b.NonTSCycles)
	}
	if Improvement(200, 100) != 1.0 || Improvement(100, 0) != 0 {
		t.Error("Improvement arithmetic broken")
	}
}

func TestConsistencySigmaShrinksWithWindow(t *testing.T) {
	b := tinyBenchmark()
	m := machine.SPARCII()
	p, err := profiling.Run(b, b.Train, m)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	rows, err := Consistency(b, m, p, MethodRBR, []int{5, 20}, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	w5, w20 := rows[0].Windows[5], rows[0].Windows[20]
	if w5.N == 0 || w20.N == 0 {
		t.Fatal("no rating samples collected")
	}
	if w20.Sigma >= w5.Sigma {
		t.Errorf("sigma did not shrink with window: w5=%v w20=%v", w5.Sigma, w20.Sigma)
	}
	if math.Abs(w20.Mu) > 0.02 {
		t.Errorf("RBR mean error = %v, want near 0", w20.Mu)
	}
}

// cacheSensitiveBenchmark walks a working set large enough that the first
// execution of an invocation warms the cache for the second — the bias the
// improved RBR method exists to remove (paper §2.4.2).
func cacheSensitiveBenchmark() *bench.Benchmark {
	prog := ir.NewProgram()
	prog.AddArray("cs", ir.F64, 4096)
	b := irbuild.NewFunc("csb")
	b.ScalarParam("off", ir.I64).Local("s", ir.F64)
	fn := b.Body(
		b.For("i", b.I(0), b.I(512), 1,
			b.Set(b.V("s"), b.FAdd(b.V("s"), b.At("cs", b.Add(b.V("off"), b.V("i"))))),
		),
		b.Ret(b.V("s")),
	)
	prog.AddFunc(fn)
	mkDS := func(name string, inv int) *bench.Dataset {
		return &bench.Dataset{
			Name: name, NumInvocations: inv,
			Setup: func(mem *sim.Memory, rng *rand.Rand) {
				d := mem.Get("cs").Data
				for i := range d {
					d[i] = rng.Float64()
				}
			},
			Args: func(i int, mem *sim.Memory, rng *rand.Rand) []float64 {
				// Stride through memory so every invocation starts cold.
				return []float64{float64((i * 512) % 3584)}
			},
		}
	}
	return &bench.Benchmark{
		Name: "CACHESENS", TSName: "csb", Class: bench.FP,
		Prog: prog, TS: b.Fn(),
		Train: mkDS("train", 600), Ref: mkDS("ref", 600),
		NonTSCycles: 10_000, PaperInvocations: "(test)",
	}
}

// TestImprovedRBRRemovesCacheBias is the §2.4.2 ablation: under the basic
// Figure-3 method the second timed execution runs against a warm cache, so
// the rating systematically exceeds 1; the improved Figure-4 method
// (preconditioning + order swapping) removes the bias.
func TestImprovedRBRRemovesCacheBias(t *testing.T) {
	b := cacheSensitiveBenchmark()
	m := machine.PentiumIV()
	p, err := profiling.Run(b, b.Train, m)
	if err != nil {
		t.Fatal(err)
	}

	bias := func(basic bool) float64 {
		cfg := DefaultConfig()
		cfg.BasicRBR = basic
		rows, err := Consistency(b, m, p, MethodRBR, []int{40}, &cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rows[0].Windows[40].Mu
	}
	basicMu := bias(true)
	improvedMu := bias(false)
	if math.Abs(improvedMu) >= math.Abs(basicMu) {
		t.Errorf("improved RBR bias %.4f not smaller than basic %.4f", improvedMu, basicMu)
	}
	if math.Abs(basicMu) < 0.01 {
		t.Errorf("basic RBR bias %.4f unexpectedly small; the ablation workload lost its point", basicMu)
	}
	if math.Abs(improvedMu) > 0.01 {
		t.Errorf("improved RBR bias %.4f still large", improvedMu)
	}
}
