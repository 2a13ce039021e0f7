// Package peak is the public facade of this repository: a reproduction of
//
//	Zhelong Pan and Rudolf Eigenmann,
//	"Rating Compiler Optimizations for Automatic Performance Tuning",
//	Supercomputing 2004 (SC'04).
//
// PEAK is an automatic performance tuning system. It partitions a program
// into tuning sections, rates differently-optimized code versions of each
// section with one of three context-fair rating methods — context-based
// (CBR), model-based (MBR) and re-execution-based (RBR) rating — and
// searches the compiler-flag space with Iterative Elimination to find the
// best flag combination per section.
//
// Because the original substrate (GCC 3.3, SPARC II and Pentium IV
// hardware, SPEC CPU 2000) is not reproducible from pure Go, this module
// implements the complete stack as a deterministic simulation: a two-level
// IR with an optimizing compiler exposing the 38 "-O3" flags, a
// cycle-cost execution engine with caches, branch prediction, instruction
// scheduling stalls and register pressure, and 14 workload kernels that
// mirror the tuning sections of the paper's Table 1. See DESIGN.md for the
// substitution map and EXPERIMENTS.md for paper-vs-measured results.
//
// # Quick start
//
//	b, _ := peak.BenchmarkByName("ART")
//	m := peak.PentiumIV()
//	// profile + consult + tune on the training dataset, serially
//	res, err := peak.Tune(b, m, nil, nil, nil, nil, peak.Env{})
//	fmt.Println(res.MethodUsed, res.Best) // RBR, flags without strict-aliasing
//
// Every operation — Tune, Table1, Figure7, NoiseReport, FaultReport —
// takes an Env naming its optional layers (worker pool, shared compile
// cache, persistent store, checkpoint journal, trace buffer, metrics
// registry); a nil field turns that layer off, and results are
// bit-identical for any combination.
//
// Lower-level building blocks (IR construction, compilation, simulation,
// individual raters) live in the internal packages and are exercised by
// the example programs under examples/.
package peak

import (
	"fmt"
	"io"

	"peak/internal/bench"
	"peak/internal/core"
	"peak/internal/experiments"
	"peak/internal/fault"
	"peak/internal/machine"
	"peak/internal/noise"
	"peak/internal/opt"
	"peak/internal/profiling"
	"peak/internal/sched"
	"peak/internal/sim"
	"peak/internal/store"
	"peak/internal/trace"
	"peak/internal/vcache"
	"peak/internal/workloads"
)

// Re-exported core types. Method, Rating, Config and results keep their
// full documentation in the core package.
type (
	// Benchmark is a program with one tuning section plus train/ref
	// datasets.
	Benchmark = bench.Benchmark
	// Dataset drives the tuning section through one program run.
	Dataset = bench.Dataset
	// Machine is a simulated target description.
	Machine = machine.Machine
	// Method identifies a rating method (CBR, MBR, RBR, AVG, WHL).
	Method = core.Method
	// Rating is the (EVAL, VAR) pair of one rated version.
	Rating = core.Rating
	// Config holds the rating-process parameters.
	Config = core.Config
	// TuneResult reports a finished tuning process.
	TuneResult = core.TuneResult
	// Profile is the outcome of an offline profile run.
	Profile = profiling.Profile
	// Applicability is the Rating Approach Consultant's verdict.
	Applicability = core.Applicability
	// FlagSet is a set of enabled optimization flags.
	FlagSet = opt.FlagSet
	// ConsistencyRow is one row of the Table-1 consistency experiment.
	ConsistencyRow = core.ConsistencyRow
	// Fig7Entry is one bar group of the Figure-7 experiments.
	Fig7Entry = experiments.Fig7Entry
	// AdaptiveTuner tunes during production runs (the paper's §6 online
	// scenario); AdaptiveResult reports one adaptive run.
	AdaptiveTuner = core.AdaptiveTuner
	// AdaptiveResult reports one adaptive production run.
	AdaptiveResult = core.AdaptiveResult
	// Composite is a whole application with several candidate tuning
	// sections (input to the TS Selector, paper §4.1).
	Composite = bench.Composite
	// SectionStat reports a candidate section's profiled time share.
	SectionStat = core.SectionStat
	// SelectorConfig tunes the TS Selector.
	SelectorConfig = core.SelectorConfig
	// Env selects the optional layers an operation runs under: Pool,
	// Cache, Store, Journal, Trace and Metrics. A nil field turns its
	// layer off; the zero Env is a serial, uncached, untraced run.
	Env = core.Env
	// Pool shards independent tuning work across workers while keeping
	// results bit-identical to a serial run (see ARCHITECTURE.md for the
	// determinism contract).
	Pool = sched.Pool
	// NoiseModel is a composable measurement-noise model (Gaussian jitter,
	// heavy-tailed spikes, thermal drift, correlated bursts). Set
	// Config.Noise to override a machine's default model.
	NoiseModel = noise.Model
	// NoiseRegime is a named noise model from the sensitivity sweep.
	NoiseRegime = experiments.NoiseRegime
	// VersionCache is a concurrency-safe, content-addressed compile cache.
	// Set one as Env.Cache to share compiled versions across the tuning
	// processes and measurements of an operation; results are bit-identical
	// with or without it. Caching is on by default inside each tuning
	// process — the shared cache only widens its scope.
	// Config.NoCompileCache disables caching in tuning processes; the
	// adaptive tuner never caches.
	VersionCache = vcache.Cache
	// VersionCacheStats is a snapshot of a cache's counters.
	VersionCacheStats = vcache.Stats
	// FaultPlan configures deterministic fault injection (compile failures,
	// miscompiles, measurement hangs, rating-job panics). Set Config.Faults
	// to tune under faults; same seed + same plan gives byte-identical
	// results at any worker count, cache on or off, resumed or not.
	FaultPlan = fault.Plan
	// Journal is an append-only checkpoint journal: set one as Env.Journal
	// to checkpoint every tuning process after each Iterative Elimination
	// round and resume interrupted runs byte-identically.
	Journal = store.Journal
	// FaultBar is one (benchmark, method) comparison of the fault report.
	FaultBar = experiments.FaultBar
	// TraceBuffer collects structured tuning events deterministically: the
	// trace of a run is byte-identical at any worker count and with the
	// compile cache on or off (see OBSERVABILITY.md). Set one as
	// Env.Trace; a nil buffer disables tracing at no cost.
	TraceBuffer = trace.Buffer
	// TraceEvent is one structured trace record (schema in OBSERVABILITY.md).
	TraceEvent = trace.Event
	// Tracer serializes trace buffers to JSONL, assigning sequence numbers.
	Tracer = trace.Tracer
	// Metrics is a registry of named counters and gauges filled through
	// Env.Metrics and by the FillMetrics methods of TuneResult, scheduler
	// stats, cache stats and journals.
	Metrics = trace.Metrics
	// TraceAnalysis digests a trace into per-tune time breakdowns and
	// elimination timelines (what cmd/peak-trace prints).
	TraceAnalysis = trace.Analysis
)

// Rating methods.
const (
	CBR = core.MethodCBR
	MBR = core.MethodMBR
	RBR = core.MethodRBR
	AVG = core.MethodAVG
	WHL = core.MethodWHL
)

// SPARCII returns the SPARC-II-like simulated machine.
func SPARCII() *Machine { return machine.SPARCII() }

// PentiumIV returns the Pentium-IV-like simulated machine.
func PentiumIV() *Machine { return machine.PentiumIV() }

// MachineByName resolves "sparc2" or "p4".
func MachineByName(name string) (*Machine, bool) { return machine.ByName(name) }

// Benchmarks returns all 14 Table-1 workload kernels.
func Benchmarks() []*Benchmark { return workloads.All() }

// BenchmarkByName returns the named workload ("SWIM", "ART", ...).
func BenchmarkByName(name string) (*Benchmark, bool) { return workloads.ByName(name) }

// BenchmarkNames lists the workload names in Table-1 order.
func BenchmarkNames() []string { return workloads.Names() }

// Figure7Benchmarks returns the paper's Figure-7 benchmark set (SWIM,
// MGRID, ART, EQUAKE).
func Figure7Benchmarks() []*Benchmark { return workloads.Figure7Set() }

// DefaultConfig mirrors the paper's operating point.
func DefaultConfig() Config { return core.DefaultConfig() }

// ParseMethodName resolves a rating-method name ("CBR", "RBR", ...).
func ParseMethodName(s string) (Method, bool) { return core.ParseMethod(s) }

// O3 returns the full 38-flag optimization set; O0 the empty one.
func O3() FlagSet { return opt.O3() }

// O0 returns the empty optimization set.
func O0() FlagSet { return opt.O0() }

// ParseFlags parses "-O3", "-O0" or a list of "-f<name>" tokens.
func ParseFlags(s string) (FlagSet, error) { return opt.ParseFlagSet(s) }

// ProfileBenchmark runs the offline profile pass (paper §3) of b's tuning
// section over dataset ds (nil means the training dataset) on machine m.
func ProfileBenchmark(b *Benchmark, ds *Dataset, m *Machine) (*Profile, error) {
	if ds == nil {
		ds = b.Train
	}
	return profiling.Run(b, ds, m)
}

// Consult runs the Rating Approach Consultant on a profile.
func Consult(p *Profile, cfg *Config) *Applicability { return core.Consult(p, cfg) }

// NewPool returns a worker pool with the given size. workers <= 0 uses
// GOMAXPROCS; workers == 1 is the serial pool. Set it as Env.Pool — any
// size produces bit-identical results, so workers=1 is a drop-in check of
// the others.
func NewPool(workers int) Pool { return sched.New(workers) }

// NewVersionCache returns an empty compile cache for sharing across tuning
// processes (see VersionCache).
func NewVersionCache() *VersionCache { return vcache.New() }

// orDefault resolves the facade's nil-means-default config convention.
func orDefault(cfg *Config) *Config {
	if cfg == nil {
		c := DefaultConfig()
		return &c
	}
	return cfg
}

// Tune runs the full PEAK tuning process for b on m under env: Iterative
// Elimination over the 38 flags, each candidate rated on dataset ds (nil
// means the training dataset). A nil method lets the Rating Approach
// Consultant pick CBR, MBR or RBR with runtime switching; a non-nil one
// forces that method (the Figure-7 protocol). p is the offline profile of
// b over ds on m (nil profiles it here); cfg nil means DefaultConfig. The
// result is bit-identical for any env.Pool size and env.Cache value.
func Tune(b *Benchmark, m *Machine, ds *Dataset, p *Profile, method *Method, cfg *Config, env Env) (*TuneResult, error) {
	if ds == nil {
		ds = b.Train
	}
	if p == nil {
		var err error
		if p, err = profiling.Run(b, ds, m); err != nil {
			return nil, err
		}
	}
	return env.Tune(core.Tuner{Bench: b, Mach: m, Dataset: ds, Cfg: *orDefault(cfg), Profile: p, Force: method})
}

// NewAdaptiveTuner builds an online tuner for b on m: it profiles the
// benchmark for context keying and then tunes during production runs via
// AdaptiveTuner.Run (no separate tuning time — the §6 scenario).
func NewAdaptiveTuner(b *Benchmark, m *Machine, cfg *Config) (*AdaptiveTuner, error) {
	return core.NewAdaptiveTuner(b, m, *orDefault(cfg))
}

// Measure runs b's tuning section over ds with the given flags and returns
// (TS cycles, whole-program cycles).
func Measure(b *Benchmark, ds *Dataset, m *Machine, flags FlagSet) (int64, int64, error) {
	return core.MeasurePerformanceStored(b, ds, m, flags, nil, nil)
}

// SelectSections runs the TS Selector (paper §4.1) over a composite
// program: it profiles all candidate sections and marks the
// most-time-consuming ones for tuning.
func SelectSections(c *Composite, m *Machine, cfg SelectorConfig) ([]SectionStat, error) {
	return core.SelectSections(c, m, cfg)
}

// DefaultSelectorConfig mirrors the paper's selection criterion.
func DefaultSelectorConfig() SelectorConfig { return core.DefaultSelectorConfig() }

// Improvement converts two measured times into a relative improvement.
func Improvement(base, tuned int64) float64 { return core.Improvement(base, tuned) }

// Table1 regenerates the paper's Table-1 consistency experiment on m at
// the paper's window sizes, each benchmark one coarse job on env.Pool. A
// non-nil env.Trace receives one "cell" event per consistency row and
// window, env.Metrics the grid totals. cfg may be nil for the default
// configuration.
func Table1(m *Machine, cfg *Config, env Env) ([]ConsistencyRow, error) {
	return experiments.Table1(m, experiments.PaperWindows, orDefault(cfg), env)
}

// Figure7 regenerates the paper's Figure-7 experiment on m for SWIM, MGRID,
// ART and EQUAKE: benchmarks at coarse grain on env.Pool, each tuning
// process's candidate ratings at fine grain. env.Cache is shared by every
// tune and measurement, env.Journal checkpoints and resumes every tune, and
// env.Trace/env.Metrics carry every tuning process of the protocol (train
// and ref tunes per bar). cfg may be nil for the default configuration.
func Figure7(m *Machine, cfg *Config, env Env) ([]Fig7Entry, error) {
	return experiments.Figure7(workloads.Figure7Set(), m, orDefault(cfg), env)
}

// DefaultNoise returns machine m's calibrated jitter-plus-spikes noise
// model — what measurements experience when Config.Noise is nil.
func DefaultNoise(m *Machine) NoiseModel { return sim.DefaultNoise(m) }

// NoiseRegimes lists the noise-sensitivity regimes for machine m
// (baseline, gauss4x, spikes, drift, bursts).
func NoiseRegimes(m *Machine) []NoiseRegime { return experiments.Regimes(m) }

// NoiseRegimeByName resolves a regime label for machine m.
func NoiseRegimeByName(m *Machine, name string) (NoiseRegime, bool) {
	return experiments.RegimeByName(m, name)
}

// NoiseReport regenerates the noise-sensitivity report for machine m:
// Table-1-style rating consistency and winner-picking reliability under
// each regime. The grid is sharded over env.Pool with byte-identical output
// at any worker count; env.Store memoizes grid cells across runs. cfg may
// be nil for the default configuration.
func NoiseReport(m *Machine, cfg *Config, env Env) (string, error) {
	return experiments.NoiseReport(workloads.All(), m, orDefault(cfg), env)
}

// UniformFaults returns a fault plan injecting every fault class at the
// given rate (miscompiles at a tenth of it — they are the rarest and most
// serious real-world failure) with deterministic per-identity streams
// derived from seed.
func UniformFaults(rate float64, seed int64) *FaultPlan { return fault.Uniform(rate, seed) }

// NewJournal creates (truncating) a checkpoint journal at path.
func NewJournal(path string) (*Journal, error) { return store.NewJournal(path) }

// OpenJournal opens the checkpoint journal at path for resuming, creating
// it when missing and dropping a torn trailing record if the writer was
// killed mid-append.
func OpenJournal(path string) (*Journal, error) { return store.OpenJournal(path) }

// FaultReport runs the robustness experiment on m: the Figure-7 tuning
// protocol on the train dataset under the fault plan cfg.Faults, each bar's
// winner compared against its fault-free twin. A non-nil env.Journal
// checkpoints (and resumes) the faulted tunes; env.Trace carries their
// event streams. On failure the bars completed so far are returned with
// the first error.
func FaultReport(m *Machine, cfg *Config, env Env) ([]FaultBar, error) {
	return experiments.FaultReport(workloads.Figure7Set(), m, orDefault(cfg), env)
}

// NewTraceBuffer returns an empty trace buffer to set as Env.Trace.
// Serialize it with NewTracer after the run completes.
func NewTraceBuffer() *TraceBuffer { return trace.NewBuffer() }

// NewTracer returns a tracer writing JSONL trace records to w.
func NewTracer(w io.Writer) *Tracer { return trace.NewTracer(w) }

// NewMetrics returns an empty metrics registry to set as Env.Metrics.
func NewMetrics() *Metrics { return trace.NewMetrics() }

// ReadTrace parses a JSONL trace stream (as written by a Tracer or the
// cmds' -trace flag) back into events, preserving file order.
func ReadTrace(r io.Reader) ([]TraceEvent, error) { return trace.ReadEvents(r) }

// AnalyzeTrace digests trace events into per-tune time breakdowns and
// elimination timelines — the digest cmd/peak-trace renders.
func AnalyzeTrace(events []TraceEvent) TraceAnalysis { return trace.Analyze(events) }

// Validate sanity-checks a benchmark definition (useful when constructing
// custom workloads against the public API).
func Validate(b *Benchmark) error {
	if b == nil || b.Prog == nil || b.TS == nil {
		return fmt.Errorf("peak: benchmark missing program or tuning section")
	}
	if b.Prog.Funcs[b.TSName] != b.TS {
		return fmt.Errorf("peak: tuning section %q not registered in program", b.TSName)
	}
	if b.Train == nil || b.Ref == nil {
		return fmt.Errorf("peak: benchmark needs train and ref datasets")
	}
	if b.Train.NumInvocations <= 0 || b.Ref.NumInvocations <= 0 {
		return fmt.Errorf("peak: datasets need positive invocation counts")
	}
	return nil
}
