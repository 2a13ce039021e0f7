// Package sim executes compiled LIR versions on a simulated machine and
// reports cycle-accurate costs.
//
// The engine models, per dynamic instruction: issue cost, result latency
// (exposed as stalls unless hidden by instruction scheduling), data-cache
// latency for loads/stores, spill traffic for virtual registers the
// allocator could not keep in the register file, a 2-bit branch predictor
// with a machine-specific mispredict penalty, taken-branch fetch redirects,
// and an instruction-cache overflow penalty for oversized versions.
//
// Raw cycle counts are deterministic. Measurement noise (timer jitter and
// rare outlier spikes from simulated system perturbations) is added by
// Clock, mirroring the measurement conditions the paper's window/variance
// machinery is designed for (paper §3).
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"peak/internal/cache"
	"peak/internal/ir"
	"peak/internal/machine"
	"peak/internal/noise"
	"peak/internal/regalloc"
)

// CostMods carries code-generation quality factors that optimization flags
// set without changing the instruction stream (block layout, alignment,
// call linkage).
type CostMods struct {
	// TakenBranchFactor scales the taken-branch redirect cost
	// (reorder-blocks, align-jumps/loops/labels lower it).
	TakenBranchFactor float64
	// CallOverheadFactor scales call linkage cost (defer-pop,
	// optimize-sibling-calls, caller-saves).
	CallOverheadFactor float64
	// CodeSizeExtra is alignment padding added to the version's footprint.
	CodeSizeExtra int
	// StaticPredict biases the predictor's cold state when
	// guess-branch-probability is on.
	StaticPredict bool
}

// DefaultCostMods returns neutral modifiers.
func DefaultCostMods() CostMods {
	return CostMods{TakenBranchFactor: 1, CallOverheadFactor: 1}
}

// Version is a compiled, runnable code version of one function under one
// optimization flag combination.
type Version struct {
	LF    *ir.LFunc
	Alloc regalloc.Result
	Mods  CostMods
	// CodeSize is the version's instruction footprint including callees.
	CodeSize int
	// NumOrigins is the number of blocks in the reference lowering; block
	// execution counts are reported per origin block.
	NumOrigins int
	// Callees maps user function names to their compiled versions.
	Callees map[string]*Version
	// Label identifies the flag combination (diagnostics).
	Label string

	blockIndex []int // block ID -> slice index (built lazily)
}

// Freeze eagerly builds the lazily-constructed block index of v and of
// every callee, transitively. A frozen version is immutable and may be
// executed by concurrent Runners; an unfrozen one must stay confined to a
// single goroutine because the first execution builds the index in place.
// The tuning engine freezes each version once, under its compile lock,
// before publishing it to parallel rating jobs.
func (v *Version) Freeze() {
	v.index()
	for _, c := range v.Callees {
		c.Freeze()
	}
}

func (v *Version) index() []int {
	if v.blockIndex == nil {
		maxID := 0
		for _, b := range v.LF.Blocks {
			if b.ID > maxID {
				maxID = b.ID
			}
		}
		v.blockIndex = make([]int, maxID+1)
		for i, b := range v.LF.Blocks {
			v.blockIndex[b.ID] = i
		}
	}
	return v.blockIndex
}

// RunStats reports the dynamic behaviour of one execution.
type RunStats struct {
	// Cycles is the deterministic simulated cost.
	Cycles int64
	// BlockCounts[origin] is the number of entries of each reference basic
	// block (MBR component counting; paper §2.3). Indexed by origin ID.
	BlockCounts []int64
	// Counters are the per-run deltas of MBR instrumentation counters.
	Counters []int64
	// Instrs is the number of dynamic instructions executed.
	Instrs int64
}

// Engine selects the execution engine of a Runner.
type Engine int

// Execution engines. Both are decoded from the same plan and are
// bit-identical in every observable output (return value, RunStats, errors,
// predictor and cache evolution); the differential tests in diff_test.go
// enforce the equivalence.
const (
	// EngineFused is the micro-op engine (exec.go): compact pre-decoded
	// fixed-shape micro-ops with per-block step accounting. The default.
	EngineFused Engine = iota
	// EngineRef is the original per-instruction reference interpreter
	// (ref.go), kept as semantic ground truth for differential testing.
	EngineRef
)

// Runner holds machine state that persists across executions: the data
// cache, the branch predictor, and the noise source.
type Runner struct {
	Mach  *machine.Machine
	Mem   *Memory
	Cache *cache.Hierarchy

	// Engine selects the execution engine (default EngineFused).
	Engine Engine

	// plans holds the per-version decoded dispatch tables (see plan.go),
	// including the 2-bit branch-predictor counters; predictor state
	// persists across invocations within a program run (ResetMicroarch
	// bumps epoch, which re-initializes it in place on next use).
	plans    map[*Version]*vplan
	lastV    *Version
	lastPlan *vplan
	epoch    uint64
	rng      *rand.Rand

	// MaxSteps bounds dynamic instructions per Run (guards against
	// miscompiled infinite loops). Zero means the default of 100M.
	MaxSteps int64

	// CollectBlockCounts enables per-origin block execution counting
	// (needed by profiling; off by default to keep the hot path lean).
	CollectBlockCounts bool

	// RecordWrites enables the write log: every store appends the
	// overwritten (array, index, old value) triple to WriteLog. This is
	// the paper's RBR "inspector code that records the addresses and
	// values of the write references" (§2.4.2), enabling element-accurate
	// undo instead of whole-array save/restore.
	RecordWrites bool
	// WriteLog holds the recorded writes (oldest first). Callers clear it
	// between executions with WriteLog = WriteLog[:0].
	WriteLog []WriteRec

	// scratch buffers reused across invocations, one per call depth.
	scratchRegs  [][]float64
	scratchReady [][]int64
	scratchRF    [][]regState
	scratchArgs  [][]float64

	ex execState
}

// frame returns zeroed register/ready buffers for a call depth.
func (r *Runner) frame(depth, n int) ([]float64, []int64) {
	for len(r.scratchRegs) <= depth {
		r.scratchRegs = append(r.scratchRegs, nil)
		r.scratchReady = append(r.scratchReady, nil)
	}
	if cap(r.scratchRegs[depth]) < n {
		r.scratchRegs[depth] = make([]float64, n)
		r.scratchReady[depth] = make([]int64, n)
	}
	regs := r.scratchRegs[depth][:n]
	ready := r.scratchReady[depth][:n]
	for i := range regs {
		regs[i] = 0
		ready[i] = 0
	}
	return regs, ready
}

// regState is one micro-op engine register slot: the value and its ready time
// interleaved, so touching an operand's value and readiness costs one cache
// line instead of two.
type regState struct {
	val   float64
	ready int64
}

// frameFused returns a zeroed register frame for the micro-op engine at a call
// depth. The frame is padded to a power-of-two length so the interpreter
// can index it as rf[uint(uint32(i))&mask] with mask = uint(len(rf)-1)
// taken after a len(rf) > 0 guard: the mask is a no-op for the valid
// indices decode produces (all < n), and because the masked index is
// unsigned and at most len(rf)-1 the compiler drops the register file's
// bounds checks. (A signed int mask does not suffice: the compiler cannot
// rule out a mask of -1.)
func (r *Runner) frameFused(depth, n int) []regState {
	for len(r.scratchRF) <= depth {
		r.scratchRF = append(r.scratchRF, nil)
	}
	n2 := 1
	for n2 < n {
		n2 <<= 1
	}
	if cap(r.scratchRF[depth]) < n2 {
		r.scratchRF[depth] = make([]regState, n2)
	}
	rf := r.scratchRF[depth][:n2]
	for i := range rf {
		rf[i] = regState{}
	}
	return rf
}

// callBuf returns an argument buffer for a call made at the given depth.
// At most one call per depth is in flight at a time, and callees copy the
// arguments into their own registers on entry, so the buffer is free for
// reuse as soon as the next call at the same depth begins.
func (r *Runner) callBuf(depth, n int) []float64 {
	for len(r.scratchArgs) <= depth {
		r.scratchArgs = append(r.scratchArgs, nil)
	}
	if cap(r.scratchArgs[depth]) < n {
		r.scratchArgs[depth] = make([]float64, n)
	}
	return r.scratchArgs[depth][:n]
}

// NewRunner creates a runner for machine m over memory mem, with a
// deterministic noise source derived from seed.
func NewRunner(m *machine.Machine, mem *Memory, seed int64) *Runner {
	return &Runner{
		Mach:  m,
		Mem:   mem,
		Cache: cache.NewHierarchy(m),
		plans: make(map[*Version]*vplan),
		epoch: 1,
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// ResetMicroarch clears cache and predictor state (start of a program run).
// Predictor slices are not reallocated: bumping the epoch makes each plan
// re-initialize its counters in place (zero + static hints) on next use.
func (r *Runner) ResetMicroarch() {
	r.Cache.Reset()
	r.epoch++
}

// ErrRuntime wraps simulated program errors (bounds, division by zero).
var ErrRuntime = errors.New("simulated runtime error")

// ErrStepLimit (a kind of ErrRuntime) reports that a run exceeded
// Runner.MaxSteps. The golden-output verifier runs candidate versions under
// a step bound derived from the reference run, so a miscompiled version
// whose loop runs away is killed and quarantined instead of hanging the
// tuner; errors.Is(err, ErrStepLimit) distinguishes that case.
var ErrStepLimit = fmt.Errorf("%w: step limit exceeded", ErrRuntime)

// Run executes version v with the given scalar arguments and returns its
// return value (NaN if none) and execution statistics.
//
// The first Run of a version on this runner decodes it into a dispatch
// plan (plan.go): flat micro-op tables for the default engine, plus the
// dInstr tables the reference engine walks.
// Subsequent Runs reuse the plan, so the execution loop performs no map
// lookups or operand re-decoding per invocation.
func (r *Runner) Run(v *Version, args []float64) (float64, RunStats, error) {
	p := r.plan(v)
	stats := RunStats{}
	if r.CollectBlockCounts {
		stats.BlockCounts = make([]int64, v.NumOrigins)
	}
	if p.numCounters > 0 {
		// Freshly allocated per run: callers retain Counters across runs.
		stats.Counters = make([]int64, p.numCounters)
	}
	maxSteps := r.MaxSteps
	if maxSteps == 0 {
		maxSteps = 100_000_000
	}
	ex := &r.ex
	ex.r, ex.stats, ex.steps, ex.maxSteps = r, &stats, 0, maxSteps
	var (
		ret    float64
		cycles int64
		err    error
	)
	if r.Engine == EngineRef {
		// The reference engine counts stats.Instrs incrementally.
		ret, cycles, err = ex.execRef(p, args, 0)
	} else {
		// The micro-op engine counts only steps; steps and Instrs are
		// incremented in lockstep by the reference, so the final step
		// count IS the dynamic instruction count.
		ret, cycles, err = ex.execFused(p, args, 0)
		stats.Instrs = ex.steps
	}
	ex.stats = nil
	stats.Cycles = cycles
	return ret, stats, err
}

type execState struct {
	r        *Runner
	stats    *RunStats
	steps    int64
	maxSteps int64
}

const maxCallDepth = 16

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// intrinsic evaluates a built-in math intrinsic. An unrecognized name is a
// hard ErrRuntime: silently returning NaN (the pre-PR-8 behaviour) could
// mask an ir/sim intrinsic-table drift as a quarantinable numeric diff
// instead of surfacing it as the miscompile it is.
func intrinsic(name string, args []float64) (float64, error) {
	switch name {
	case "sqrt":
		return math.Sqrt(args[0]), nil
	case "abs":
		return math.Abs(args[0]), nil
	case "floor":
		return math.Floor(args[0]), nil
	case "sin":
		return math.Sin(args[0]), nil
	case "cos":
		return math.Cos(args[0]), nil
	case "exp":
		return math.Exp(args[0]), nil
	case "log":
		return math.Log(args[0]), nil
	case "min":
		return math.Min(args[0], args[1]), nil
	case "max":
		return math.Max(args[0], args[1]), nil
	case "imin":
		if args[0] < args[1] {
			return args[0], nil
		}
		return args[1], nil
	case "imax":
		if args[0] > args[1] {
			return args[0], nil
		}
		return args[1], nil
	}
	return 0, fmt.Errorf("%w: unknown intrinsic %q", ErrRuntime, name)
}

// Clock converts deterministic cycle counts into noisy "measured" times.
// The noise regime is a pluggable noise.Model (injected perturbations for
// robustness experiments); NewClock uses the machine's default regime,
// which mirrors the paper's measurement conditions.
type Clock struct {
	stream *noise.Stream
	// NoiseOff disables noise injection (ablation experiments).
	NoiseOff bool
}

// DefaultNoise returns the machine's baseline measurement-noise model:
// Gaussian timer jitter plus rare outlier spikes from simulated system
// perturbations (paper §3).
func DefaultNoise(m *machine.Machine) noise.Model {
	return noise.Model{
		Jitter:     m.NoiseStdDev,
		SpikeProb:  m.OutlierProb,
		SpikeScale: m.OutlierScale,
	}
}

// NewClock returns a measurement clock with the machine's default noise
// regime, deterministic from seed.
func NewClock(m *machine.Machine, seed int64) *Clock {
	return NewClockWith(DefaultNoise(m), seed)
}

// NewClockWith returns a measurement clock driven by an explicit noise
// model, deterministic from seed (noise-injection experiments).
func NewClockWith(model noise.Model, seed int64) *Clock {
	return &Clock{stream: model.NewStream(seed)}
}

// Noise returns the clock's noise model.
func (c *Clock) Noise() noise.Model { return c.stream.Model() }

// Measure returns the noisy measured time for a run of the given cycle
// count, perturbed by the clock's noise model.
func (c *Clock) Measure(cycles int64) float64 {
	t := float64(cycles)
	if c.NoiseOff {
		return t
	}
	t = c.stream.Perturb(t)
	if t < 1 {
		t = 1
	}
	return t
}
