// Differential tests proving the micro-op engine (exec.go)
// bit-identical to the reference interpreter (ref.go) in every observable:
// return value, Cycles, Instrs, Counters, BlockCounts, WriteLog, memory
// contents, and every error path — including the exact step at which a fault
// or ErrStepLimit fires, observable through Instrs and Cycles at the error.
//
// Two batteries: every benchmark/machine pair at two optimization levels
// (real code shapes, cache and predictor evolution across invocations), and
// randomized LIR programs built directly as CFGs (adversarial shapes the
// compiler never emits: irreducible loops, dead registers, faulting
// memory ops, unknown callees, step-limit runaways). FuzzEngineDifferential
// drives the random-program battery from the fuzzer.
package sim_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"peak/internal/ir"
	"peak/internal/irbuild"
	"peak/internal/lower"
	"peak/internal/machine"
	"peak/internal/opt"
	"peak/internal/regalloc"
	"peak/internal/sim"
	"peak/internal/workloads"
)

// writeBits is a WriteRec with the old value as raw bits, so NaN-carrying
// logs compare exactly.
type writeBits struct {
	Arr     string
	Idx     int64
	OldBits uint64
}

// observation captures every observable of one invocation. Float values are
// held as bits so NaNs compare exactly and reflect.DeepEqual means
// bit-identical.
type observation struct {
	RetBits     uint64
	ErrText     string
	Cycles      int64
	Instrs      int64
	Counters    []int64
	BlockCounts []int64
	Writes      []writeBits
	Mem         map[string][]uint64
}

// observe runs one invocation of v and snapshots all of its observables,
// including the full post-run memory image.
func observe(r *sim.Runner, mem *sim.Memory, v *sim.Version, args []float64) observation {
	r.WriteLog = r.WriteLog[:0]
	ret, st, err := r.Run(v, args)
	o := observation{
		RetBits:     math.Float64bits(ret),
		Cycles:      st.Cycles,
		Instrs:      st.Instrs,
		Counters:    append([]int64(nil), st.Counters...),
		BlockCounts: append([]int64(nil), st.BlockCounts...),
		Mem:         make(map[string][]uint64),
	}
	if err != nil {
		o.ErrText = err.Error()
	}
	for _, w := range r.WriteLog {
		o.Writes = append(o.Writes, writeBits{Arr: w.Arr, Idx: w.Idx, OldBits: math.Float64bits(w.Old)})
	}
	names := mem.Names()
	sort.Strings(names)
	for _, n := range names {
		data := mem.Get(n).Data
		bits := make([]uint64, len(data))
		for i, f := range data {
			bits[i] = math.Float64bits(f)
		}
		o.Mem[n] = bits
	}
	return o
}

// compareObs fails the test when the fused and reference observations differ,
// reporting the first differing field.
func compareObs(t *testing.T, label string, fused, ref observation, dump func() string) bool {
	t.Helper()
	if reflect.DeepEqual(fused, ref) {
		return true
	}
	detail := ""
	switch {
	case fused.RetBits != ref.RetBits:
		detail = fmt.Sprintf("return: fused %x (%v) ref %x (%v)",
			fused.RetBits, math.Float64frombits(fused.RetBits),
			ref.RetBits, math.Float64frombits(ref.RetBits))
	case fused.ErrText != ref.ErrText:
		detail = fmt.Sprintf("error: fused %q ref %q", fused.ErrText, ref.ErrText)
	case fused.Cycles != ref.Cycles:
		detail = fmt.Sprintf("cycles: fused %d ref %d", fused.Cycles, ref.Cycles)
	case fused.Instrs != ref.Instrs:
		detail = fmt.Sprintf("instrs: fused %d ref %d", fused.Instrs, ref.Instrs)
	case !reflect.DeepEqual(fused.Counters, ref.Counters):
		detail = fmt.Sprintf("counters: fused %v ref %v", fused.Counters, ref.Counters)
	case !reflect.DeepEqual(fused.BlockCounts, ref.BlockCounts):
		detail = fmt.Sprintf("block counts: fused %v ref %v", fused.BlockCounts, ref.BlockCounts)
	case !reflect.DeepEqual(fused.Writes, ref.Writes):
		detail = fmt.Sprintf("write log: fused %d recs ref %d recs", len(fused.Writes), len(ref.Writes))
	default:
		detail = "memory contents differ"
	}
	msg := label + ": " + detail
	if dump != nil {
		msg += "\n" + dump()
	}
	t.Error(msg)
	return false
}

// TestDifferentialBenchmarks runs every benchmark on both machines at -O3 and
// -O0, several invocations each so cache and predictor state evolves, and
// asserts the two engines observe exactly the same execution.
func TestDifferentialBenchmarks(t *testing.T) {
	for _, m := range []*machine.Machine{machine.SPARCII(), machine.PentiumIV()} {
		for _, b := range workloads.All() {
			for _, fs := range []opt.FlagSet{opt.O3(), opt.O0()} {
				v, err := opt.Compile(b.Prog, b.TS, fs, m)
				if err != nil {
					t.Fatalf("%s/%s %s: compile: %v", m.Name, b.Name, fs, err)
				}
				label := fmt.Sprintf("%s/%s/%s", m.Name, b.Name, fs)

				memF, memR := sim.NewMemory(b.Prog), sim.NewMemory(b.Prog)
				rngF := rand.New(rand.NewSource(b.Seed(17)))
				rngR := rand.New(rand.NewSource(b.Seed(17)))
				if b.Train.Setup != nil {
					b.Train.Setup(memF, rngF)
					b.Train.Setup(memR, rngR)
				}
				rF := sim.NewRunner(m, memF, 11)
				rR := sim.NewRunner(m, memR, 11)
				rR.Engine = sim.EngineRef
				rF.CollectBlockCounts, rR.CollectBlockCounts = true, true
				rF.RecordWrites, rR.RecordWrites = true, true

				invs := 3
				if b.Train.NumInvocations < invs {
					invs = b.Train.NumInvocations
				}
				for i := 0; i < invs; i++ {
					argsF := b.Train.Args(i, memF, rngF)
					argsR := b.Train.Args(i, memR, rngR)
					oF := observe(rF, memF, v, argsF)
					oR := observe(rR, memR, v, argsR)
					if !compareObs(t, fmt.Sprintf("%s inv %d", label, i), oF, oR, nil) {
						return
					}
				}
			}
		}
	}
}

// arrNames weights the memory targets of random loads/stores: mostly the two
// real arrays, occasionally a name the program never declared (the
// unknown-array fault path).
var arrNames = []string{"a", "b", "a", "b", "a", "b", "a", "ghost"}

// intr1 and intr2 are the one- and two-argument intrinsics random calls use.
var (
	intr1 = []string{"sqrt", "abs", "floor", "sin", "cos", "exp", "log"}
	intr2 = []string{"min", "max", "imin", "imax"}
)

// binaryOps is the opcode pool for random three-address instructions,
// weighted toward the pure-ALU kinds so straight-line runs of dependent
// arithmetic are common; LDiv/LMod appear but rarely, so most programs
// survive past their first faultable op.
var binaryOps = []ir.Opcode{
	ir.LAdd, ir.LAdd, ir.LSub, ir.LSub, ir.LMul, ir.LMul,
	ir.LFAdd, ir.LFAdd, ir.LFSub, ir.LFMul, ir.LFMul, ir.LFDiv,
	ir.LAnd, ir.LOr, ir.LXor, ir.LShl, ir.LShr,
	ir.LCmpEq, ir.LCmpNe, ir.LCmpLt, ir.LCmpLe, ir.LCmpGt, ir.LCmpGe,
	ir.LFCmpEq, ir.LFCmpNe, ir.LFCmpLt, ir.LFCmpLe, ir.LFCmpGt, ir.LFCmpGe,
	ir.LDiv, ir.LMod,
}

// randomInstr emits one random instruction over nregs virtual registers.
// Unused operand fields are ir.NoReg, the invariant lowered LIR maintains
// ("NoReg if unused") and the engines' decode relies on.
func randomInstr(rng *rand.Rand, nregs int) ir.Instr {
	r := func() ir.Reg { return ir.Reg(rng.Intn(nregs)) }
	no := ir.NoReg
	switch rng.Intn(20) {
	case 0:
		return ir.Instr{Op: ir.LMovI, Dst: r(), A: no, B: no, Src: no, Imm: int64(rng.Intn(41) - 10)}
	case 1:
		return ir.Instr{Op: ir.LMovF, Dst: r(), A: no, B: no, Src: no, FImm: rng.NormFloat64() * 8}
	case 2:
		return ir.Instr{Op: ir.LMov, Dst: r(), A: r(), B: no, Src: no}
	case 3:
		ops := []ir.Opcode{ir.LNeg, ir.LFNeg, ir.LNot}
		return ir.Instr{Op: ops[rng.Intn(len(ops))], Dst: r(), A: r(), B: no, Src: no}
	case 4:
		return ir.Instr{Op: ir.LSelect, Dst: r(), A: r(), B: r(), Src: r()}
	case 5, 6:
		return ir.Instr{Op: ir.LLoad, Dst: r(), A: r(), B: no, Src: no, Arr: arrNames[rng.Intn(len(arrNames))]}
	case 7, 8:
		return ir.Instr{Op: ir.LStore, Dst: no, A: r(), B: no, Src: r(), Arr: arrNames[rng.Intn(len(arrNames))]}
	case 9:
		call := ir.Instr{Op: ir.LCall, Dst: r(), A: no, B: no, Src: no}
		switch rng.Intn(12) {
		case 0, 1, 2, 3, 4:
			call.Fn, call.CallArgs = intr1[rng.Intn(len(intr1))], []ir.Reg{r()}
		case 5, 6, 7, 8:
			call.Fn, call.CallArgs = intr2[rng.Intn(len(intr2))], []ir.Reg{r(), r()}
		case 9, 10:
			call.Fn, call.CallArgs = "leaf", []ir.Reg{r(), r()}
		default:
			// A name that is neither intrinsic nor callee: the
			// unresolved-call fault path.
			call.Fn, call.CallArgs = "phantom", []ir.Reg{r()}
		}
		return call
	case 10:
		// Counter 4 is out of range for NumCounters=4: both engines must
		// drop the bump.
		return ir.Instr{Op: ir.LCount, Dst: no, A: no, B: no, Src: no, Imm: int64(rng.Intn(5))}
	case 11:
		return ir.Instr{Op: ir.LNop, Dst: no, A: no, B: no, Src: no}
	default:
		return ir.Instr{Op: binaryOps[rng.Intn(len(binaryOps))], Dst: r(), A: r(), B: r(), Src: no}
	}
}

// randomLFunc builds a random LIR CFG directly — no lowering, no verifier —
// so shapes the compiler would never emit (irreducible loops, self-loops,
// blocks whose registers are never initialized) are all fair game. The
// entry block is seeded with constant moves so arithmetic has nonzero
// operands to chew on; termination is not guaranteed, which is the point:
// runaway programs must hit ErrStepLimit at the same step on both engines.
func randomLFunc(rng *rand.Rand, name string) *ir.LFunc {
	nregs := 6 + rng.Intn(8)
	f := &ir.LFunc{Name: name, NumRegs: nregs, NumCounters: 4}
	nparams := rng.Intn(3)
	for p := 0; p < nparams; p++ {
		f.Params = append(f.Params, ir.Param{Name: fmt.Sprintf("p%d", p)})
		f.ParamRegs = append(f.ParamRegs, ir.Reg(p))
	}
	f.FloatReg = make([]bool, nregs)
	for i := range f.FloatReg {
		f.FloatReg[i] = rng.Intn(2) == 0
	}

	nblocks := 1 + rng.Intn(5)
	for bi := 0; bi < nblocks; bi++ {
		blk := &ir.Block{ID: bi, Origin: bi, LoopDepth: rng.Intn(3)}
		if bi == 0 {
			for k := 0; k < nregs/2; k++ {
				blk.Instrs = append(blk.Instrs, ir.Instr{
					Op: ir.LMovI, Dst: ir.Reg(rng.Intn(nregs)),
					A: ir.NoReg, B: ir.NoReg, Src: ir.NoReg,
					Imm: int64(rng.Intn(15) + 1)})
			}
		}
		n := 1 + rng.Intn(10)
		for k := 0; k < n; k++ {
			blk.Instrs = append(blk.Instrs, randomInstr(rng, nregs))
		}
		switch rng.Intn(4) {
		case 0:
			val := ir.NoReg
			if rng.Intn(4) > 0 {
				val = ir.Reg(rng.Intn(nregs))
			}
			blk.Term = ir.Terminator{Kind: ir.TermReturn, Val: val}
		case 1:
			blk.Term = ir.Terminator{Kind: ir.TermJump, Then: rng.Intn(nblocks)}
		default:
			blk.Term = ir.Terminator{Kind: ir.TermBranch, Cond: ir.Reg(rng.Intn(nregs)),
				Then: rng.Intn(nblocks), Else: rng.Intn(nblocks), Likely: rng.Intn(3) - 1}
		}
		f.Blocks = append(f.Blocks, blk)
	}
	return f
}

// randomVersion wraps a random LFunc with randomized spill decisions and cost
// modifiers — every knob that changes the cycle accounting.
func randomVersion(rng *rand.Rand, lf *ir.LFunc, m *machine.Machine, leaf *sim.Version, label string) *sim.Version {
	alloc := regalloc.Result{Spilled: make([]bool, lf.NumRegs)}
	for i := range alloc.Spilled {
		if rng.Intn(4) == 0 {
			alloc.Spilled[i] = true
			alloc.NumSpilled++
		}
	}
	mods := sim.DefaultCostMods()
	if rng.Intn(2) == 0 {
		mods.TakenBranchFactor = 0.85 + rng.Float64()
	}
	if rng.Intn(2) == 0 {
		mods.CallOverheadFactor = 0.9 + rng.Float64()
	}
	mods.StaticPredict = rng.Intn(2) == 0
	codeSize := lf.InstrCount()
	if rng.Intn(4) == 0 {
		// Overflow the icache so the per-block fetch penalty is exercised.
		codeSize += m.ICacheInstrs
	}
	return &sim.Version{
		LF:         lf,
		Alloc:      alloc,
		Mods:       mods,
		CodeSize:   codeSize,
		NumOrigins: len(lf.Blocks),
		Callees:    map[string]*sim.Version{"leaf": leaf},
		Label:      label,
	}
}

// compileLeaf builds the fixed user-callee random programs may call.
func compileLeaf(t testing.TB, prog *ir.Program, m *machine.Machine) *sim.Version {
	t.Helper()
	b := irbuild.NewFunc("leaf")
	b.ScalarParam("u", ir.F64).ScalarParam("w", ir.F64)
	fn := b.Body(b.Ret(b.FAdd(b.FMul(b.V("u"), b.V("w")), b.F(1))))
	lf, err := lower.Lower(prog, fn)
	if err != nil {
		t.Fatalf("lower leaf: %v", err)
	}
	return &sim.Version{
		LF:         lf,
		Alloc:      regalloc.Allocate(lf, m.IntRegs, m.FloatRegs),
		Mods:       sim.DefaultCostMods(),
		CodeSize:   lf.InstrCount(),
		NumOrigins: len(lf.Blocks),
		Label:      "leaf",
	}
}

// randomEnv is the fixed world random programs run in: two arrays and,
// per machine, the compiled leaf callee.
type randomEnv struct {
	prog     *ir.Program
	machines []*machine.Machine
	leaves   []*sim.Version
}

func newRandomEnv(t testing.TB) *randomEnv {
	prog := ir.NewProgram()
	prog.AddArray("a", ir.F64, 19)
	prog.AddArray("b", ir.F64, 8)
	machines := []*machine.Machine{machine.SPARCII(), machine.PentiumIV()}
	return &randomEnv{
		prog:     prog,
		machines: machines,
		leaves: []*sim.Version{
			compileLeaf(t, prog, machines[0]),
			compileLeaf(t, prog, machines[1]),
		},
	}
}

// programRand returns the random source that generates random program number seed.
func programRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed*7919 + 3)) }

// diffRandomProgram generates random program seed for machine mi, runs it on
// both engines for up to two invocations (stopping after the first error),
// and compares every observation. It returns the last micro-op engine
// observation and whether all of them matched the reference.
func (e *randomEnv) diffRandomProgram(t *testing.T, seed int64, mi int) (observation, bool) {
	t.Helper()
	rng := programRand(seed)
	m := e.machines[mi]
	lf := randomLFunc(rng, fmt.Sprintf("rand%d", seed))
	v := randomVersion(rng, lf, m, e.leaves[mi], lf.Name)

	memF, memR := sim.NewMemory(e.prog), sim.NewMemory(e.prog)
	for _, name := range []string{"a", "b"} {
		dst, src := memF.Get(name).Data, memR.Get(name).Data
		for i := range dst {
			dst[i] = rng.NormFloat64() * 4
			src[i] = dst[i]
		}
	}
	rF := sim.NewRunner(m, memF, 7)
	rR := sim.NewRunner(m, memR, 7)
	rR.Engine = sim.EngineRef
	rF.MaxSteps, rR.MaxSteps = 2000, 2000
	rF.CollectBlockCounts, rR.CollectBlockCounts = true, true
	rF.RecordWrites, rR.RecordWrites = true, true

	var oF observation
	for inv := 0; inv < 2; inv++ {
		args := make([]float64, len(lf.ParamRegs))
		for i := range args {
			args[i] = rng.NormFloat64() * 10
		}
		if rng.Intn(8) == 0 {
			args = args[:0] // fewer args than params: params stay zero
		}
		oF = observe(rF, memF, v, args)
		oR := observe(rR, memR, v, args)
		ok := compareObs(t, fmt.Sprintf("seed %d inv %d (%s)", seed, inv, m.Name),
			oF, oR, lf.String)
		if !ok {
			return oF, false
		}
		if oF.ErrText != "" {
			break
		}
	}
	return oF, true
}

// TestDifferentialRandomLIR feeds both engines 1200 randomized LIR programs
// (two invocations each, so predictor and cache state carries over) under a
// tight step limit, asserting bit-identical observations — including faults
// and ErrStepLimit at the exact same dynamic instruction.
func TestDifferentialRandomLIR(t *testing.T) {
	numProgs := 1200
	if testing.Short() {
		numProgs = 150
	}

	env := newRandomEnv(t)
	errored, limited := 0, 0
	for seed := 0; seed < numProgs; seed++ {
		oF, ok := env.diffRandomProgram(t, int64(seed), seed%len(env.machines))
		if !ok {
			return
		}
		if oF.ErrText != "" {
			errored++
			if oF.Instrs > 0 && oF.Instrs >= 2000 {
				limited++
			}
		}
	}
	// The battery is only meaningful if it actually exercises the error and
	// step-limit paths; the generator is tuned so a healthy fraction does.
	if errored < numProgs/20 {
		t.Errorf("only %d/%d random programs hit an error path; generator too tame", errored, numProgs)
	}
	if limited == 0 {
		t.Error("no random program hit ErrStepLimit; generator too tame")
	}
	t.Logf("random programs: %d total, %d errored (%d at the step limit)", numProgs, errored, limited)
}

// FuzzEngineDifferential is TestDifferentialRandomLIR driven by the fuzzer:
// any (seed, machine) pair names one random program, which must observe
// exactly the same execution on both engines. Seed n with machine n%2 is
// the battery's program n. The committed corpus (testdata/fuzz) pins
// programs that reach each fault path and the step limit, most of them
// with an operand still in flight, so an engine that reports the wrong
// cycle or step at a fault fails it.
func FuzzEngineDifferential(f *testing.F) {
	env := newRandomEnv(f)
	f.Add(int64(0), byte(0))
	f.Fuzz(func(t *testing.T, seed int64, machine byte) {
		if stepFreeCycle(randomLFunc(programRand(seed), "")) {
			t.Skip("loop of instruction-free blocks: no engine ever reaches the step limit")
		}
		env.diffRandomProgram(t, seed, int(machine)%len(env.machines))
	})
}

// stepFreeCycle reports whether lf has a loop of blocks holding no
// instruction but counter bumps and nops. Neither engine counts those or
// terminators as steps, so such a loop never reaches Runner.MaxSteps and
// the reference itself runs it forever.
func stepFreeCycle(lf *ir.LFunc) bool {
	free := make([]bool, len(lf.Blocks))
	for i, b := range lf.Blocks {
		free[i] = true
		for _, in := range b.Instrs {
			if in.Op != ir.LCount && in.Op != ir.LNop {
				free[i] = false
				break
			}
		}
	}
	// Depth-first search over the step-free blocks for a back edge.
	const onStack, done = 1, 2
	state := make([]uint8, len(lf.Blocks))
	var visit func(int) bool
	visit = func(i int) bool {
		state[i] = onStack
		var succ []int
		switch t := lf.Blocks[i].Term; t.Kind {
		case ir.TermJump:
			succ = []int{t.Then}
		case ir.TermBranch:
			succ = []int{t.Then, t.Else}
		}
		for _, s := range succ {
			if free[s] && (state[s] == onStack || state[s] == 0 && visit(s)) {
				return true
			}
		}
		state[i] = done
		return false
	}
	for i := range lf.Blocks {
		if free[i] && state[i] == 0 && visit(i) {
			return true
		}
	}
	return false
}
