package peak

// Benchmark harness: one testing.B entry per table/figure of the paper's
// evaluation (DESIGN.md §4), plus microbenchmarks for the substrate.
//
//	go test -bench=. -benchmem                 # everything (minutes)
//	go test -bench=Table1 -benchtime=1x        # one experiment, one pass
//
// The experiment benchmarks perform the full regeneration per iteration and
// report the headline quantities via b.ReportMetric, so `-benchtime=1x` is
// the sensible setting; the default 1s target also ends up running a single
// iteration for the heavy ones.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"

	"peak/internal/bench"
	"peak/internal/core"
	"peak/internal/experiments"
	"peak/internal/machine"
	"peak/internal/opt"
	"peak/internal/profiling"
	"peak/internal/regress"
	"peak/internal/sim"
	"peak/internal/store"
	"peak/internal/workloads"
)

// --- Table 1: rating consistency --------------------------------------------

func benchmarkTable1(b *testing.B, m *machine.Machine) {
	cfg := core.DefaultConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(m, experiments.PaperWindows, &cfg, core.Env{})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) < 14 {
			b.Fatalf("only %d rows", len(rows))
		}
		// Report the w=160 sigma of the first row as a stability canary.
		b.ReportMetric(rows[0].Windows[160].Sigma*100, "sigma160x100")
	}
}

func BenchmarkTable1ConsistencySPARC(b *testing.B) { benchmarkTable1(b, machine.SPARCII()) }
func BenchmarkTable1ConsistencyP4(b *testing.B)    { benchmarkTable1(b, machine.PentiumIV()) }

// --- Figure 2: the MBR regression example -----------------------------------

func BenchmarkFigure2MBR(b *testing.B) {
	y := []float64{11015, 5508, 6626, 6044, 8793}
	x := [][]float64{{100, 1}, {50, 1}, {60, 1}, {55, 1}, {80, 1}}
	for i := 0; i < b.N; i++ {
		res, err := regress.Solve(x, y)
		if err != nil {
			b.Fatal(err)
		}
		if res.Coef[0] < 110 || res.Coef[0] > 110.1 {
			b.Fatalf("T1 = %v, want 110.05", res.Coef[0])
		}
	}
}

// --- Figure 7 (a)+(c): SPARC II improvements and tuning times ----------------

func benchmarkFigure7(b *testing.B, m *machine.Machine) {
	cfg := core.DefaultConfig()
	for i := 0; i < b.N; i++ {
		entries, err := experiments.Figure7(workloads.Figure7Set(), m, &cfg, Env{Cache: NewVersionCache()})
		if err != nil {
			b.Fatal(err)
		}
		h := experiments.Summarize(entries)
		b.ReportMetric(100*h.MaxImprovement, "maxImprove%")
		b.ReportMetric(100*h.AvgReduction, "avgTimeReduction%")
	}
}

// BenchmarkFigure7aSPARC regenerates Figure 7(a) and (c): performance
// improvement over -O3 and tuning time normalized to WHL on the
// SPARC-II-like machine.
func BenchmarkFigure7aSPARC(b *testing.B) { benchmarkFigure7(b, machine.SPARCII()) }

// BenchmarkFigure7bPentium4 regenerates Figure 7(b) and (d) on the
// Pentium-IV-like machine (the ART strict-aliasing headline).
func BenchmarkFigure7bPentium4(b *testing.B) { benchmarkFigure7(b, machine.PentiumIV()) }

// --- Figure 7 (c)/(d) focused: tuning-time ratio of one benchmark ------------

func benchmarkTuningTime(b *testing.B, m *machine.Machine, name string, method core.Method) {
	bm, ok := workloads.ByName(name)
	if !ok {
		b.Fatalf("missing %s", name)
	}
	cfg := core.DefaultConfig()
	for i := 0; i < b.N; i++ {
		p, err := ProfileBenchmark(bm, nil, m)
		if err != nil {
			b.Fatal(err)
		}
		forced := method
		tu := &core.Tuner{Bench: bm, Mach: m, Dataset: bm.Train, Cfg: cfg, Profile: p, Force: &forced}
		res, err := tu.Tune()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.TuningCycles), "tuningCycles")
		b.ReportMetric(float64(res.ProgramRuns), "programRuns")
	}
}

// BenchmarkFigure7cTuningTimeSPARC measures the Figure-7(c) contrast on one
// benchmark: MGRID tuned with the consultant's MBR choice.
func BenchmarkFigure7cTuningTimeSPARC(b *testing.B) {
	benchmarkTuningTime(b, machine.SPARCII(), "MGRID", core.MethodMBR)
}

// BenchmarkFigure7dTuningTimeP4 measures the Figure-7(d) contrast on one
// benchmark: SWIM tuned with RBR (the expensive wrong choice on P4).
func BenchmarkFigure7dTuningTimeP4(b *testing.B) {
	benchmarkTuningTime(b, machine.PentiumIV(), "SWIM", core.MethodRBR)
}

// --- Ablations (DESIGN.md §5) -------------------------------------------------

// BenchmarkAblationBasicVsImprovedRBR quantifies the cache-preconditioning
// bias the improved RBR method removes (paper §2.4.2): for every RBR row of
// Table 1 on both machines it reports the mean rating error (×100, w=160)
// of a base==experimental comparison under both variants, one
// sub-benchmark per row. TestImprovedRBRRemovesCacheBias (internal/core)
// asserts on the same numbers.
func BenchmarkAblationBasicVsImprovedRBR(b *testing.B) {
	const w = 160
	improved := core.DefaultConfig()
	basic := improved
	basic.BasicRBR = true
	for _, m := range []*machine.Machine{machine.SPARCII(), machine.PentiumIV()} {
		for _, name := range []string{"BZIP2", "CRAFTY", "GZIP", "MCF", "TWOLF", "VORTEX", "ART", "MESA"} {
			bm, _ := workloads.ByName(name)
			b.Run(name+"/"+m.Name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p, err := ProfileBenchmark(bm, nil, m)
					if err != nil {
						b.Fatal(err)
					}
					for _, v := range []struct {
						cfg    *core.Config
						metric string
					}{{&basic, "basicMu_x100"}, {&improved, "improvedMu_x100"}} {
						rows, err := core.Consistency(bm, m, p, core.MethodRBR, []int{w}, v.cfg)
						if err != nil {
							b.Fatal(err)
						}
						b.ReportMetric(rows[0].Windows[w].Mu*100, v.metric)
					}
				}
			})
		}
	}
}

// --- Substrate microbenchmarks -------------------------------------------------

// BenchmarkSimInterpreter measures raw execution-engine throughput on the
// EQUAKE kernel (cycles simulated per wall-second matter for experiment
// runtimes).
func BenchmarkSimInterpreter(b *testing.B) {
	bm, _ := workloads.ByName("EQUAKE")
	m := machine.PentiumIV()
	v, err := opt.Compile(bm.Prog, bm.TS, opt.O3(), m)
	if err != nil {
		b.Fatal(err)
	}
	mem := sim.NewMemory(bm.Prog)
	runner := sim.NewRunner(m, mem, 1)
	bm.Train.Setup(mem, rand.New(rand.NewSource(1)))
	var instrs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := runner.Run(v, []float64{48})
		if err != nil {
			b.Fatal(err)
		}
		instrs += st.Instrs
	}
	b.ReportMetric(float64(instrs)/float64(b.N), "instrs/op")
}

// BenchmarkCompileO3 measures the optimizing compiler on the biggest
// kernel (ART) at full optimization.
func BenchmarkCompileO3(b *testing.B) {
	bm, _ := workloads.ByName("ART")
	m := machine.PentiumIV()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Compile(bm.Prog, bm.TS, opt.O3(), m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfileRun measures the offline profiling pass.
func BenchmarkProfileRun(b *testing.B) {
	bm, _ := workloads.ByName("APSI")
	m := machine.SPARCII()
	for i := 0; i < b.N; i++ {
		if _, err := ProfileBenchmark(bm, nil, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfileStored contrasts the two ways a warm server gets the
// profiles of the 16 pairs e2ebench's serve-warm refines (its 8 refinable
// benchmarks on both machines, train dataset): "run" simulates each
// profile run, "store" answers each from a reopened store's profile memo,
// decode included. One iteration is one pass over all 16; the store leg
// also reports the encoded size of the 16 records.
func BenchmarkProfileStored(b *testing.B) {
	type pair struct {
		bench *bench.Benchmark
		mach  *machine.Machine
	}
	var pairs []pair
	for _, name := range []string{"CRAFTY", "GZIP", "MCF", "VORTEX", "APPLU", "EQUAKE", "MESA", "SWIM"} {
		bm, _ := workloads.ByName(name)
		for _, m := range []*machine.Machine{machine.SPARCII(), machine.PentiumIV()} {
			pairs = append(pairs, pair{bm, m})
		}
	}
	run := func(p pair) func() (profiling.Profile, error) {
		return func() (profiling.Profile, error) {
			prof, err := profiling.Run(p.bench, p.bench.Train, p.mach)
			if err != nil {
				return profiling.Profile{}, err
			}
			return *prof, nil
		}
	}
	key := func(p pair) string { return p.bench.Name + "/" + p.bench.Train.Name + "/" + p.mach.Name }

	b.Run("run", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range pairs {
				if _, err := run(p)(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("store", func(b *testing.B) {
		dir := b.TempDir()
		st, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		bytes := 0
		for _, p := range pairs {
			prof, _, err := store.Memo(st, profiling.MemoKind, key(p), run(p))
			if err != nil {
				b.Fatal(err)
			}
			enc, _ := prof.MarshalBinary()
			bytes += len(enc)
		}
		if err := st.Flush(); err != nil {
			b.Fatal(err)
		}
		if st, err = store.Open(dir); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, p := range pairs {
				if _, hit, err := store.Memo(st, profiling.MemoKind, key(p), run(p)); err != nil || !hit {
					b.Fatalf("%s: hit=%t err=%v, want a stored profile", key(p), hit, err)
				}
			}
		}
		b.ReportMetric(float64(bytes)/1024, "KB/pass")
	})
}

// --- Parallel tuning --------------------------------------------------------

// BenchmarkParallelSpeedup contrasts a full tune on the serial pool against
// the same tune sharded over an 8-worker pool. The results are
// bit-identical by the internal/sched contract (TestPoolDeterminism
// asserts it); the wall-time ratio only exceeds 1 when GOMAXPROCS allows
// real concurrency — on a single-CPU machine the two run at the same
// speed (EXPERIMENTS.md, "Parallel tuning").
func BenchmarkParallelSpeedup(b *testing.B) {
	bm, _ := workloads.ByName("SWIM")
	m := machine.PentiumIV()
	b.Logf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pool := NewPool(workers)
			for i := 0; i < b.N; i++ {
				res, err := Tune(bm, m, nil, nil, nil, nil, Env{Pool: pool})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Invocations), "invocations")
			}
		})
	}
}

// --- Bench smoke ------------------------------------------------------------

// TestBenchSmokeReportsInvocationsPerSec runs the peak-bench CLI for a very
// short window and checks that the report carries the interpreter-throughput
// fields the BENCH_pr*.json history is built from. A bench report without
// invocations_per_sec cannot be compared across PRs, so its absence is a
// regression in its own right. The run includes -micro, whose four
// opcode-class kernels must each report a time on both engines.
func TestBenchSmokeReportsInvocationsPerSec(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not in PATH")
	}
	out := filepath.Join(t.TempDir(), "bench.json")
	cmd := exec.Command(goBin, "run", "./cmd/peak-bench", "-mintime", "0.05", "-micro", "-o", out)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("peak-bench: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		InvocationsPerSec    float64 `json:"invocations_per_sec"`
		InvocationsPerSecRef float64 `json:"invocations_per_sec_ref"`
		CompileSpeedup       float64 `json:"compile_speedup"`
		Micro                []struct {
			Class     string `json:"class"`
			FusedNsOp int64  `json:"fused_ns_op"`
			RefNsOp   int64  `json:"ref_ns_op"`
		} `json:"micro"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("parse %s: %v", out, err)
	}
	if rep.InvocationsPerSec <= 0 {
		t.Errorf("invocations_per_sec = %v, want > 0", rep.InvocationsPerSec)
	}
	if rep.InvocationsPerSecRef <= 0 {
		t.Errorf("invocations_per_sec_ref = %v, want > 0", rep.InvocationsPerSecRef)
	}
	if rep.CompileSpeedup < 2 {
		t.Errorf("compile_speedup = %v, want >= 2", rep.CompileSpeedup)
	}
	if len(rep.Micro) != 4 {
		t.Fatalf("micro reports %d classes, want 4", len(rep.Micro))
	}
	for _, c := range rep.Micro {
		if c.FusedNsOp <= 0 || c.RefNsOp <= 0 {
			t.Errorf("micro %s: fused_ns_op = %d, ref_ns_op = %d, want both > 0", c.Class, c.FusedNsOp, c.RefNsOp)
		}
	}
}
