package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"peak/internal/bench"
	"peak/internal/core"
	"peak/internal/ir"
	"peak/internal/irbuild"
	"peak/internal/machine"
	"peak/internal/profiling"
	"peak/internal/sched"
	"peak/internal/sim"
	"peak/internal/trace"
	"peak/internal/vcache"
	"peak/internal/workloads"
)

// quickBenchmark is a fast single-context workload so the full Figure-7
// protocol (all methods including WHL, train and ref) runs in seconds.
func quickBenchmark() *bench.Benchmark {
	prog := ir.NewProgram()
	prog.AddArray("q", ir.F64, 96)
	b := irbuild.NewFunc("quick")
	b.ScalarParam("n", ir.I64).Local("s", ir.F64)
	fn := b.Body(
		b.For("i", b.I(0), b.V("n"), 1,
			b.Set(b.V("s"), b.FAdd(b.V("s"),
				b.FMul(b.At("q", b.V("i")), b.At("q", b.V("i"))))),
		),
		b.Ret(b.V("s")),
	)
	prog.AddFunc(fn)
	mkDS := func(name string, inv int) *bench.Dataset {
		return &bench.Dataset{
			Name: name, NumInvocations: inv,
			Setup: func(mem *sim.Memory, rng *rand.Rand) {
				d := mem.Get("q").Data
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
		Name: "QUICK", TSName: "quick", Class: bench.FP,
		Prog: prog, TS: fn,
		Train: mkDS("train", 250), Ref: mkDS("ref", 500),
		NonTSCycles: 50_000, PaperInvocations: "(test)",
	}
}

func TestFigure7Protocol(t *testing.T) {
	cfg := core.DefaultConfig()
	m := machine.SPARCII()
	entries, err := Figure7([]*bench.Benchmark{quickBenchmark()}, m, &cfg, core.Env{Cache: vcache.New()})
	if err != nil {
		t.Fatal(err)
	}
	// CBR, MBR (constant-only), RBR, WHL, AVG.
	if len(entries) != 5 {
		t.Fatalf("entries = %d, want 5", len(entries))
	}
	var whl, chosen *Fig7Entry
	for i := range entries {
		e := &entries[i]
		if e.Method == core.MethodWHL {
			whl = e
		}
		if e.Chosen {
			chosen = e
		}
		if e.TrainTuningCycles <= 0 || e.RefTuningCycles <= 0 {
			t.Errorf("%s: missing tuning cycles", e.Method)
		}
	}
	if whl == nil {
		t.Fatal("WHL entry missing")
	}
	if whl.TrainNormTime != 1 || whl.RefNormTime != 1 {
		t.Errorf("WHL must normalize to 1.0, got %v/%v", whl.TrainNormTime, whl.RefNormTime)
	}
	if chosen == nil || chosen.Method != core.MethodCBR {
		t.Errorf("chosen method = %v, want CBR", chosen)
	}
	// The fair methods must be far cheaper than WHL on this workload.
	for _, e := range entries {
		if e.Method == core.MethodWHL {
			continue
		}
		if e.TrainNormTime >= 1 {
			t.Errorf("%s: normalized tuning time %.3f not below WHL", e.Method, e.TrainNormTime)
		}
	}
	out := FormatFigure7(entries, m.Name)
	for _, want := range []string{"quick_CBR", "quick_WHL", "normalized to WHL"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatFigure7 missing %q", want)
		}
	}
}

func TestForceableBars(t *testing.T) {
	cfg := core.DefaultConfig()
	m := machine.SPARCII()

	// ART: no CBR bar (mutated control arrays), no MBR bar (bad model) —
	// exactly the paper's art_RBR/art_WHL/art_AVG set.
	art, _ := workloads.ByName("ART")
	p, err := profileOf(art, m)
	if err != nil {
		t.Fatal(err)
	}
	ms := forceable(p, &cfg)
	if len(ms) != 3 || ms[0] != core.MethodRBR {
		t.Errorf("ART bars = %v, want [RBR WHL AVG]", ms)
	}

	// MGRID: CBR bar exists despite too many contexts (the mgrid_CBR
	// bar), plus MBR.
	mgrid, _ := workloads.ByName("MGRID")
	p, err = profileOf(mgrid, m)
	if err != nil {
		t.Fatal(err)
	}
	ms = forceable(p, &cfg)
	found := map[core.Method]bool{}
	for _, mm := range ms {
		found[mm] = true
	}
	if !found[core.MethodCBR] || !found[core.MethodMBR] {
		t.Errorf("MGRID bars = %v, want CBR and MBR present", ms)
	}
}

func TestTable1Structure(t *testing.T) {
	cfg := core.DefaultConfig()
	rows, err := Table1(machine.SPARCII(), []int{10, 40}, &cfg, core.Env{})
	if err != nil {
		t.Fatal(err)
	}
	// 14 benchmarks; APSI contributes 3 rows and WUPWISE 2: 17 total.
	if len(rows) != 17 {
		t.Fatalf("rows = %d, want 17", len(rows))
	}
	perBench := map[string]int{}
	grew := 0
	for _, r := range rows {
		perBench[r.Benchmark]++
		w10, w40 := r.Windows[10], r.Windows[40]
		if w10.N == 0 || w40.N == 0 {
			t.Errorf("%s: empty windows", r.Benchmark)
		}
		if w40.Sigma > w10.Sigma {
			grew++
		}
	}
	if perBench["APSI"] != 3 || perBench["WUPWISE"] != 2 || perBench["SWIM"] != 1 {
		t.Errorf("context rows: %v", perBench)
	}
	// σ must shrink with the window for nearly all rows (noise can flip
	// one or two).
	if grew > 2 {
		t.Errorf("%d rows grew sigma from w=10 to w=40", grew)
	}
	out := FormatTable1(rows, []int{10, 40})
	for _, want := range []string{"BZIP2", "radb4(Context 3)", "w=40"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatTable1 missing %q", want)
		}
	}
}

func TestSummarize(t *testing.T) {
	entries := []Fig7Entry{
		{Chosen: true, TrainImprovement: 0.5, TrainNormTime: 0.2},
		{Chosen: true, TrainImprovement: 0.1, TrainNormTime: 0.1},
		{Chosen: false, TrainImprovement: 9.9, TrainNormTime: 9.9}, // ignored
	}
	h := Summarize(entries)
	if h.MaxImprovement != 0.5 || h.AvgImprovement != 0.3 {
		t.Errorf("improvement summary: %+v", h)
	}
	if h.MaxReduction != 0.9 || math.Abs(h.AvgReduction-0.85) > 1e-12 {
		t.Errorf("reduction summary: %+v", h)
	}
}

func profileOf(b *bench.Benchmark, m *machine.Machine) (*profiling.Profile, error) {
	return profiling.Run(b, b.Train, m)
}

// TestVersionCacheDeterminism is the compile-cache half of the determinism
// contract (ARCHITECTURE.md §3): the formatted experiment outputs — the
// Figure-7 panels, a Table-1 consistency row, and the noise-sensitivity
// report — must be byte-identical with the cache enabled or disabled and at
// 1 or 8 workers. The full-workload equivalent is spot-checked by the
// tier-1 recipe against the recorded results files.
func TestVersionCacheDeterminism(t *testing.T) {
	benches := []*bench.Benchmark{quickBenchmark()}
	m := machine.SPARCII()

	render := func(noCache bool, pool sched.Pool) string {
		cfg := core.DefaultConfig()
		cfg.NoCompileCache = noCache
		var cache *vcache.Cache
		if !noCache {
			cache = vcache.New()
		}
		entries, err := Figure7(benches, m, &cfg, core.Env{Pool: pool, Cache: cache})
		if err != nil {
			t.Fatalf("figure7 (nocache=%v): %v", noCache, err)
		}
		fig := FormatFigure7(entries, m.Name)

		// Table 1: the consistency experiment deliberately bypasses the
		// cache (it measures two independently compiled -O3 copies), so its
		// rows must be untouched by the config switch.
		p, err := profileOf(benches[0], m)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := core.Consistency(benches[0], m, p, core.Consult(p, &cfg).Chosen(),
			[]int{10, 20}, &cfg)
		if err != nil {
			t.Fatalf("consistency (nocache=%v): %v", noCache, err)
		}
		tab := FormatTable1(rows, []int{10, 20})

		noise, err := NoiseReport(benches, m, &cfg, core.Env{Pool: pool})
		if err != nil {
			t.Fatalf("noise report (nocache=%v): %v", noCache, err)
		}
		return fig + "\n" + tab + "\n" + noise
	}

	ref := render(false, nil) // cache on, serial: the recorded-results path
	for _, c := range []struct {
		name    string
		noCache bool
		pool    sched.Pool
	}{
		{"cache on, workers=8", false, sched.New(8)},
		{"cache off, workers=1", true, nil},
		{"cache off, workers=8", true, sched.New(8)},
	} {
		if got := render(c.noCache, c.pool); got != ref {
			t.Errorf("%s: output diverged from cache on, workers=1", c.name)
		}
	}
}

// TestShardIsolatesPanics pins the reduction every experiment driver
// shares: when job k panics, shard returns an error naming job k, the
// results of jobs 0..k−1 in input order, and exactly those jobs' trace
// events and metrics — at any worker count, and without the panic
// escaping the pool goroutine that ran it.
func TestShardIsolatesPanics(t *testing.T) {
	const n, k = 6, 3
	for _, pool := range []sched.Pool{nil, sched.New(4)} {
		env := core.Env{Pool: pool, Trace: trace.NewBuffer(), Metrics: trace.NewMetrics()}
		out, err := shard(n, env, func(i int) string { return fmt.Sprintf("job-%d", i) },
			func(i int, env core.Env) ([]int, error) {
				env.Trace.Emit(trace.Event{Kind: trace.KindCell, Detail: fmt.Sprintf("job-%d", i)})
				env.Metrics.Add("jobs", 1)
				if i == k {
					panic("boom")
				}
				return []int{i, 10 * i}, nil
			})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("job-%d: panic: boom", k)) {
			t.Fatalf("err = %v, want a panic error naming job-%d", err, k)
		}
		if want := []int{0, 0, 1, 10, 2, 20}; !reflect.DeepEqual(out, want) {
			t.Errorf("partial results = %v, want %v", out, want)
		}
		var got []string
		for _, ev := range env.Trace.Events() {
			got = append(got, ev.Detail)
		}
		if want := []string{"job-0", "job-1", "job-2"}; !reflect.DeepEqual(got, want) {
			t.Errorf("folded trace = %v, want %v", got, want)
		}
		if c := env.Metrics.Get("jobs"); c != k {
			t.Errorf("folded metrics jobs = %d, want %d", c, k)
		}
	}
}
