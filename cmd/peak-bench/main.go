// Command peak-bench measures the tuning-throughput numbers reported in
// EXPERIMENTS.md ("Tuning throughput"): the cost of a compile-cache hit
// versus a cold compilation, the simulator's invocation throughput on the
// decoded-plan fast path, and the end-to-end wall time of the Table-1
// consistency experiment. It emits one JSON object (BENCH_pr3.json in the
// repository was produced by it; the documented command is recorded in the
// output itself).
//
// Usage:
//
//	peak-bench                                  # compile + simulator numbers
//	peak-bench -table1                          # also time Table 1 end to end
//	peak-bench -table1 -baseline-table1-ns N    # embed a pre-change baseline
//	peak-bench -o BENCH_pr3.json                # write instead of stdout
//	peak-bench -trace bench.jsonl               # wall-clock phase events
//
// The -trace output records wall-clock "bench_phase" events — the one
// documented exemption from the repository's trace determinism contract
// (OBSERVABILITY.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"peak/internal/bench"
	"peak/internal/cli"
	"peak/internal/core"
	"peak/internal/experiments"
	"peak/internal/ir"
	"peak/internal/irbuild"
	"peak/internal/machine"
	"peak/internal/opt"
	"peak/internal/profiling"
	"peak/internal/sched"
	"peak/internal/serve"
	"peak/internal/sim"
	"peak/internal/store"
	"peak/internal/trace"
	"peak/internal/vcache"
	"peak/internal/workloads"
)

// report is the BENCH_pr3.json schema.
type report struct {
	Command string `json:"command"`
	Bench   string `json:"bench"`
	Machine string `json:"machine"`

	// Compile cache: ns per cold compilation (no cache, every call runs
	// the optimizer) vs ns per cached lookup of the same flag sets.
	CompileColdNsOp   int64   `json:"compile_cold_ns_op"`
	CompileCachedNsOp int64   `json:"compile_cached_ns_op"`
	CompileSpeedup    float64 `json:"compile_speedup"`
	CompileFlagSets   int     `json:"compile_flag_sets"`

	// Simulator fast path: TS invocations per second and ns per invocation
	// for the -O3 version of the selected benchmark on the default
	// (micro-op, sim.EngineFused) engine, plus the same measurement on the reference
	// interpreter and their ratio. Both engines run interleaved in one
	// process, alternating timed windows, so external load (hypervisor
	// steal) hits both alike; the speedup is the ratio of the best windows.
	InvocationsPerSec    float64 `json:"invocations_per_sec"`
	InvocationNsOp       int64   `json:"invocation_ns_op"`
	InvocationCycles     int64   `json:"invocation_cycles"`
	InvocationsPerSecRef float64 `json:"invocations_per_sec_ref"`
	SimSpeedup           float64 `json:"sim_speedup"`

	// Micro holds the per-opcode-class engine microbenchmarks (-micro).
	Micro []microReport `json:"micro,omitempty"`

	// End-to-end: wall time of the Table-1 consistency experiment on the
	// selected machine (serial, all 14 benchmarks), plus the pre-change
	// baseline and speedup when -baseline-table1-ns is given.
	Table1WallNs         int64   `json:"table1_wall_ns,omitempty"`
	Table1BaselineWallNs int64   `json:"table1_baseline_wall_ns,omitempty"`
	Table1Speedup        float64 `json:"table1_speedup,omitempty"`

	// WarmStart holds the persistent-store warm-start measurements (-warmstart).
	WarmStart *warmStartReport `json:"warm_start,omitempty"`
}

// warmStartReport is the -warmstart section: the same full tune run cold
// (empty store) and memo-warm (reopened after a flush, every rating
// answered from the memo table), plus a disk-warm peak-serve restart
// answering a duplicate spec from a restored job artifact.
type warmStartReport struct {
	// ColdTuneNs and MemoWarmTuneNs are one full consultant-path tune's
	// wall time against an empty store and against the reopened flushed
	// store; MemoSpeedup is their ratio (the warm tune simulates nothing —
	// MemoHits ratings answered from disk, MemoMisses must be 0).
	ColdTuneNs     int64   `json:"cold_tune_ns"`
	MemoWarmTuneNs int64   `json:"memo_warm_tune_ns"`
	MemoSpeedup    float64 `json:"memo_speedup"`
	MemoHits       int64   `json:"memo_hits"`
	MemoMisses     int64   `json:"memo_misses"`

	// ServeColdJobNs is the wall time of one peak-serve job run cold with a
	// store attached; ServeRestartNs the time for a rebooted server (same
	// store directory) to boot, restore the finished job and answer the
	// duplicate spec. ServeSimCycles is the warm server's simulated-cycle
	// ledger while doing so — zero means the answer came entirely from the
	// restored artifact.
	ServeColdJobNs    int64 `json:"serve_cold_job_ns"`
	ServeRestartNs    int64 `json:"serve_restart_ns"`
	ServeRestoredJobs int64 `json:"serve_restored_jobs"`
	ServeSimCycles    int64 `json:"serve_sim_cycles"`
}

// microReport is one per-opcode-class engine microbenchmark: the default
// micro-op engine (FusedNsOp, named after sim.EngineFused) and the reference
// engines executing the same synthetic kernel, interleaved.
type microReport struct {
	Class        string  `json:"class"`
	InstrsPerInv int64   `json:"instrs_per_invocation"`
	FusedNsOp    int64   `json:"fused_ns_op"`
	RefNsOp      int64   `json:"ref_ns_op"`
	Speedup      float64 `json:"speedup"`
}

func main() {
	var (
		benchName  = flag.String("bench", "SWIM", "benchmark for the compile and simulator measurements")
		machName   = flag.String("machine", "sparc2", `machine: "sparc2" or "p4"`)
		out        = flag.String("o", "", "write the JSON report to this file (default stdout)")
		runTable1  = flag.Bool("table1", false, "also run the Table-1 experiment end to end (seconds)")
		baseNs     = flag.Int64("baseline-table1-ns", 0, "pre-change Table-1 wall time to embed for comparison")
		minSeconds = flag.Float64("mintime", 1.0, "minimum seconds per timed section")
		tracePath  = flag.String("trace", "", "write wall-clock bench_phase events to this JSONL file")
		metrics    = flag.Bool("metrics", false, "print the measured numbers as a metrics table to stderr")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the timed sections to this file")
		micro      = flag.Bool("micro", false, "also run the per-opcode-class engine microbenchmarks")
		warmstart  = flag.Bool("warmstart", false, "also measure warm-start tuning: cold vs memo-warm tune, disk-warm serve restart")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	b, ok := workloads.ByName(*benchName)
	if !ok {
		fatalf("unknown benchmark %q", *benchName)
	}
	m, ok := machine.ByName(*machName)
	if !ok {
		fatalf("unknown machine %q", *machName)
	}
	r := report{
		Command: "peak-bench " + strings.Join(os.Args[1:], " "),
		Bench:   b.Name, Machine: m.Name,
	}
	obs := cli.NewObserver(*tracePath, *metrics, os.Stderr)
	// Flush the phases recorded so far on SIGINT/SIGTERM instead of
	// losing them (the bench sections can run for minutes).
	obs.FlushOnInterrupt(os.Stderr, "peak-bench", nil)
	// phase records one timed section as a wall-clock bench_phase event
	// (Count = elapsed nanoseconds, Invocations = operations) — outside
	// the determinism contract by design.
	phase := func(name string, elapsedNs, ops int64) {
		obs.Buf.Emit(trace.Event{Kind: trace.KindBenchPhase,
			Detail: name, Count: elapsedNs, Invocations: ops})
	}

	// The flag-set population a tuning round touches: -O3 plus every
	// one-flag-off candidate.
	flagSets := []opt.FlagSet{opt.O3()}
	for _, f := range opt.AllFlags() {
		flagSets = append(flagSets, opt.O3().Without(f))
	}
	r.CompileFlagSets = len(flagSets)

	// Cold: every call compiles. The inner loop re-runs the whole
	// population so both sections do work proportional to len(flagSets).
	coldOps := 0
	coldStart := time.Now()
	for time.Since(coldStart).Seconds() < *minSeconds {
		for _, fs := range flagSets {
			if _, err := opt.Compile(b.Prog, b.TS, fs, m); err != nil {
				fatalf("compile %s: %v", fs, err)
			}
			coldOps++
		}
	}
	coldNs := time.Since(coldStart).Nanoseconds()
	r.CompileColdNsOp = coldNs / int64(coldOps)
	phase("compile_cold", coldNs, int64(coldOps))

	// Cached: warm the cache with one pass, then time pure hits.
	cache := vcache.New()
	pk := vcache.ProgramKey(b.Prog)
	lookup := func(fs opt.FlagSet) {
		_, err := cache.Resolve(
			vcache.Key{Prog: pk, Fn: b.TSName, Flags: fs, Machine: m.Name},
			func() (*sim.Version, error) { return opt.Compile(b.Prog, b.TS, fs, m) })
		if err != nil {
			fatalf("cached compile %s: %v", fs, err)
		}
	}
	for _, fs := range flagSets {
		lookup(fs)
	}
	cachedOps := 0
	cachedStart := time.Now()
	for time.Since(cachedStart).Seconds() < *minSeconds {
		for _, fs := range flagSets {
			lookup(fs)
			cachedOps++
		}
	}
	cachedNs := time.Since(cachedStart).Nanoseconds()
	r.CompileCachedNsOp = cachedNs / int64(cachedOps)
	phase("compile_cached", cachedNs, int64(cachedOps))
	if r.CompileCachedNsOp > 0 {
		r.CompileSpeedup = float64(r.CompileColdNsOp) / float64(r.CompileCachedNsOp)
	}

	// Simulator throughput: repeated invocations of the -O3 version through
	// one runner (plans decoded once, the tuning steady state). Both engines
	// share the runner and alternate timed windows so external load cannot
	// favour one; the headline numbers come from the default engine's windows,
	// the speedup from the ratio of the best windows (least-disturbed).
	v, err := opt.Compile(b.Prog, b.TS, opt.O3(), m)
	if err != nil {
		fatalf("compile -O3: %v", err)
	}
	mem := sim.NewMemory(b.Prog)
	rng := rand.New(rand.NewSource(b.Seed(31)))
	if b.Train.Setup != nil {
		b.Train.Setup(mem, rng)
	}
	runner := sim.NewRunner(m, mem, 1)
	args := b.Train.Args(0, mem, rng)
	cycles, fused, ref := engineContrast(runner, v, args, *minSeconds)
	r.InvocationCycles = cycles
	r.InvocationNsOp = fused.nsOp()
	r.InvocationsPerSec = fused.opsPerSec()
	r.InvocationsPerSecRef = ref.opsPerSec()
	if ref.bestNsOp > 0 {
		r.SimSpeedup = float64(ref.bestNsOp) / float64(fused.bestNsOp)
	}
	phase("simulate", fused.ns+ref.ns, fused.ops+ref.ops)

	if *micro {
		r.Micro = microBenchmarks(m, *minSeconds, phase)
	}

	if *warmstart {
		r.WarmStart = warmStartBench(b, m, phase)
	}

	if *runTable1 {
		cfg := core.DefaultConfig()
		t0 := time.Now()
		if _, err := experiments.Table1(m, experiments.PaperWindows, &cfg, core.Env{}); err != nil {
			fatalf("table1: %v", err)
		}
		r.Table1WallNs = time.Since(t0).Nanoseconds()
		phase("table1", r.Table1WallNs, 1)
		if *baseNs > 0 {
			r.Table1BaselineWallNs = *baseNs
			r.Table1Speedup = float64(*baseNs) / float64(r.Table1WallNs)
		}
	}

	if obs.Mx != nil {
		obs.Mx.Gauge("bench.compile_cold_ns_op", r.CompileColdNsOp)
		obs.Mx.Gauge("bench.compile_cached_ns_op", r.CompileCachedNsOp)
		obs.Mx.Gauge("bench.invocation_ns_op", r.InvocationNsOp)
		if r.Table1WallNs > 0 {
			obs.Mx.Gauge("bench.table1_wall_ns", r.Table1WallNs)
		}
	}
	if err := obs.Flush(); err != nil {
		fatalf("trace: %v", err)
	}

	enc, err := json.MarshalIndent(&r, "", "  ")
	if err != nil {
		fatalf("marshal: %v", err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatalf("write %s: %v", *out, err)
	}
}

// engineSample accumulates one engine's share of an interleaved measurement:
// total work plus the best (least externally disturbed) window.
type engineSample struct {
	ops, ns   int64
	bestNsOp  int64
	lastCycle int64
}

func (s *engineSample) nsOp() int64 {
	if s.ops == 0 {
		return 0
	}
	return s.ns / s.ops
}

func (s *engineSample) opsPerSec() float64 {
	if s.ns == 0 {
		return 0
	}
	return float64(s.ops) / (float64(s.ns) / 1e9)
}

// engineContrast measures v on both execution engines with alternating timed
// windows over one shared runner, for ~minSeconds total. Interleaving in a
// single process is the only arrangement in which external load (notably
// hypervisor CPU steal on small VMs) perturbs both engines alike; comparing
// each engine's best window then cancels most of what remains.
func engineContrast(runner *sim.Runner, v *sim.Version, args []float64, minSeconds float64) (cycles int64, fused, ref engineSample) {
	const perWindow = 16
	samples := [2]*engineSample{&fused, &ref}
	engines := [2]sim.Engine{sim.EngineFused, sim.EngineRef}
	start := time.Now()
	for w := 0; time.Since(start).Seconds() < minSeconds || w < 2; w++ {
		s := samples[w%2]
		runner.Engine = engines[w%2]
		t0 := time.Now()
		for i := 0; i < perWindow; i++ {
			_, st, err := runner.Run(v, args)
			if err != nil {
				fatalf("run (%s): %v", v.Label, err)
			}
			s.lastCycle = st.Cycles
		}
		ns := time.Since(t0).Nanoseconds()
		s.ops += perWindow
		s.ns += ns
		if nsOp := ns / perWindow; s.bestNsOp == 0 || nsOp < s.bestNsOp {
			s.bestNsOp = nsOp
		}
	}
	runner.Engine = sim.EngineFused
	return fused.lastCycle, fused, ref
}

// microKernel builds one synthetic per-opcode-class kernel. Each stresses a
// different micro-op population: straight-line ALU chains, cache
// accesses, data-dependent branches, or call dispatch.
func microKernel(class string) (*ir.Program, *ir.Func, []float64) {
	prog := ir.NewProgram()
	b := irbuild.NewFunc(class)
	var fn *ir.Func
	var args []float64
	switch class {
	case "alu_superblock":
		// Long straight-line int+FP arithmetic, no memory: pure micro-op
		// dispatch, with no cache model or predictor in the way.
		b.ScalarParam("n", ir.I64).Local("s", ir.F64).Local("t", ir.I64).Local("u", ir.F64)
		fn = b.Body(
			b.Set(b.V("s"), b.F(1)),
			b.Set(b.V("t"), b.I(7)),
			b.For("i", b.I(0), b.V("n"), 1,
				b.Set(b.V("s"), b.FAdd(b.FMul(b.V("s"), b.F(1.000001)), b.F(0.25))),
				b.Set(b.V("t"), b.Add(b.Xor(b.V("t"), b.V("i")), b.I(3))),
				b.Set(b.V("u"), b.FSub(b.FMul(b.V("u"), b.F(0.5)), b.V("s"))),
				b.Set(b.V("t"), b.And(b.Add(b.V("t"), b.Shl(b.V("t"), b.I(1))), b.I(4095))),
				b.Set(b.V("s"), b.FAdd(b.V("s"), b.FMul(b.V("u"), b.F(0.125)))),
				b.Set(b.V("t"), b.Or(b.V("t"), b.Shr(b.V("t"), b.I(2)))),
			),
			b.Ret(b.V("s")),
		)
		args = []float64{256}
	case "memory_bound":
		// Streaming loads and stores over arrays larger than L1: dominated
		// by the cache model.
		prog.AddArray("x", ir.F64, 4096)
		prog.AddArray("y", ir.F64, 4096)
		b.ScalarParam("n", ir.I64).Local("s", ir.F64)
		fn = b.Body(
			b.For("i", b.I(0), b.V("n"), 1,
				b.Set(b.V("s"), b.FAdd(b.V("s"), b.At("x", b.V("i")))),
				b.Set(b.At("y", b.V("i")), b.V("s")),
			),
			b.Ret(b.V("s")),
		)
		args = []float64{4096}
	case "branch_heavy":
		// Short blocks, data-dependent branches: predictor-bound.
		b.ScalarParam("n", ir.I64).Local("s", ir.I64)
		fn = b.Body(
			b.For("i", b.I(0), b.V("n"), 1,
				b.IfElse(b.Eq(b.And(b.V("i"), b.I(3)), b.I(0)),
					b.Stmts(b.Set(b.V("s"), b.Add(b.V("s"), b.V("i")))),
					b.Stmts(b.IfElse(b.Gt(b.V("s"), b.I(512)),
						b.Stmts(b.Set(b.V("s"), b.Sub(b.V("s"), b.I(511)))),
						b.Stmts(b.Set(b.V("s"), b.Add(b.V("s"), b.I(5)))),
					)),
				),
			),
			b.Ret(b.V("s")),
		)
		args = []float64{1024}
	case "call_heavy":
		// Intrinsic and user-function dispatch per iteration.
		cb := irbuild.NewFunc("mix")
		cb.ScalarParam("a", ir.F64).ScalarParam("b", ir.F64)
		callee := cb.Body(cb.Ret(cb.FAdd(cb.FMul(cb.V("a"), cb.V("b")), cb.F(1))))
		prog.AddFunc(callee)
		b.ScalarParam("n", ir.I64).Local("s", ir.F64)
		fn = b.Body(
			b.Set(b.V("s"), b.F(2)),
			b.For("i", b.I(0), b.V("n"), 1,
				b.Set(b.V("s"), b.Call("sqrt", b.Call("mix", b.V("s"), b.F(1.5)))),
				b.Set(b.V("s"), b.Call("max", b.V("s"), b.F(0.5))),
			),
			b.Ret(b.V("s")),
		)
		args = []float64{256}
	}
	prog.AddFunc(fn)
	return prog, fn, args
}

// microBenchmarks contrasts the engines on each opcode-class kernel,
// splitting minSeconds across the classes.
func microBenchmarks(m *machine.Machine, minSeconds float64, phase func(string, int64, int64)) []microReport {
	classes := []string{"alu_superblock", "memory_bound", "branch_heavy", "call_heavy"}
	out := make([]microReport, 0, len(classes))
	per := minSeconds / float64(len(classes))
	for _, class := range classes {
		prog, fn, args := microKernel(class)
		v, err := opt.Compile(prog, fn, opt.O3(), m)
		if err != nil {
			fatalf("compile micro %s: %v", class, err)
		}
		mem := sim.NewMemory(prog)
		for _, name := range mem.Names() {
			data := mem.Get(name).Data
			for i := range data {
				data[i] = float64(i%17) * 0.5
			}
		}
		runner := sim.NewRunner(m, mem, 1)
		_, st, err := runner.Run(v, args)
		if err != nil {
			fatalf("micro %s: %v", class, err)
		}
		_, fused, ref := engineContrast(runner, v, args, per)
		rep := microReport{
			Class:        class,
			InstrsPerInv: st.Instrs,
			FusedNsOp:    fused.nsOp(),
			RefNsOp:      ref.nsOp(),
		}
		if fused.bestNsOp > 0 {
			rep.Speedup = float64(ref.bestNsOp) / float64(fused.bestNsOp)
		}
		out = append(out, rep)
		phase("micro_"+class, fused.ns+ref.ns, fused.ops+ref.ops)
	}
	return out
}

// warmStartBench measures the persistent store's payoff. Tune leg: one
// full consultant-path tune of b on m against an empty store, flushed,
// then the identical tune against the reopened store — the warm run
// answers every rating from the memo table. Serve leg (separate store
// directory): one peak-serve job run cold with a store, drained, then a
// fresh server booted from the flushed store answering the duplicate spec
// from the restored artifact without simulating.
func warmStartBench(b *bench.Benchmark, m *machine.Machine, phase func(string, int64, int64)) *warmStartReport {
	ws := &warmStartReport{}

	tuneDir, err := os.MkdirTemp("", "peak-bench-store-*")
	if err != nil {
		fatalf("warmstart: %v", err)
	}
	defer os.RemoveAll(tuneDir)
	prof, err := profiling.Run(b, b.Train, m)
	if err != nil {
		fatalf("warmstart: profile: %v", err)
	}
	tune := func(st *store.Store, cache *vcache.Cache) *core.TuneResult {
		t := &core.Tuner{Bench: b, Mach: m, Dataset: b.Train, Cfg: core.DefaultConfig(), Profile: prof,
			Pool: sched.New(0), Cache: cache, Store: st}
		res, err := t.Tune()
		if err != nil {
			fatalf("warmstart: tune: %v", err)
		}
		return res
	}

	cold, err := store.Open(tuneDir)
	if err != nil {
		fatalf("warmstart: %v", err)
	}
	coldCache := vcache.New()
	cold.AttachCache(coldCache)
	t0 := time.Now()
	coldRes := tune(cold, coldCache)
	ws.ColdTuneNs = time.Since(t0).Nanoseconds()
	phase("warmstart_cold_tune", ws.ColdTuneNs, 1)
	if err := cold.Flush(); err != nil {
		fatalf("warmstart: flush: %v", err)
	}

	warm, err := store.Open(tuneDir)
	if err != nil {
		fatalf("warmstart: %v", err)
	}
	warmCache := vcache.New()
	warm.AttachCache(warmCache)
	t0 = time.Now()
	warmRes := tune(warm, warmCache)
	ws.MemoWarmTuneNs = time.Since(t0).Nanoseconds()
	phase("warmstart_memo_tune", ws.MemoWarmTuneNs, 1)
	if warmRes.Best != coldRes.Best {
		fatalf("warmstart: warm tune diverged: %s vs %s", warmRes.Best, coldRes.Best)
	}
	st := warm.Stats()
	ws.MemoHits, ws.MemoMisses = st.MemoHits, st.MemoMisses
	if ws.MemoWarmTuneNs > 0 {
		ws.MemoSpeedup = float64(ws.ColdTuneNs) / float64(ws.MemoWarmTuneNs)
	}

	serveDir, err := os.MkdirTemp("", "peak-bench-serve-*")
	if err != nil {
		fatalf("warmstart: %v", err)
	}
	defer os.RemoveAll(serveDir)
	req := serve.Request{Bench: b.Name, Machine: m.Name}
	coldStore, err := store.Open(serveDir)
	if err != nil {
		fatalf("warmstart: %v", err)
	}
	s1 := serve.New(serve.Options{Workers: 0, Jobs: 1, Store: coldStore})
	s1.Start()
	t0 = time.Now()
	res, code, err := s1.Submit(req)
	if err != nil || code != 202 {
		fatalf("warmstart: serve submit: code %d, %v", code, err)
	}
	for {
		snap, ok := s1.Job(res.ID)
		if !ok {
			fatalf("warmstart: serve job vanished")
		}
		if snap.State == serve.StateDone {
			break
		}
		if snap.State == serve.StateFailed {
			fatalf("warmstart: serve job failed: %s", snap.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	ws.ServeColdJobNs = time.Since(t0).Nanoseconds()
	phase("warmstart_serve_cold", ws.ServeColdJobNs, 1)
	s1.Drain()

	t0 = time.Now()
	warmStore, err := store.Open(serveDir)
	if err != nil {
		fatalf("warmstart: %v", err)
	}
	s2 := serve.New(serve.Options{Workers: 0, Jobs: 1, Store: warmStore})
	s2.Start()
	snap, code, err := s2.Submit(req)
	if err != nil || code != 200 || snap.State != serve.StateDone {
		fatalf("warmstart: serve restart did not restore the job: code %d, state %s, %v", code, snap.State, err)
	}
	ws.ServeRestartNs = time.Since(t0).Nanoseconds()
	phase("warmstart_serve_restart", ws.ServeRestartNs, 1)
	stats := s2.Stats()
	if stats.Store != nil {
		ws.ServeRestoredJobs = stats.Store.RestoredJobs
	}
	ws.ServeSimCycles = stats.Pool.Cycles
	s2.Drain()
	return ws
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "peak-bench: "+format+"\n", args...)
	os.Exit(1)
}
