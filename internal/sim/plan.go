package sim

import (
	"math"

	"peak/internal/ir"
)

// This file implements the execution fast path: a per-(Runner, Version)
// decoded plan that folds everything static about an instruction — operand
// stall lists, machine issue costs, spill-load/spill-store traffic, call
// linkage overhead, resolved memory arrays, resolved branch targets — into
// flat dispatch tables built once, so the per-invocation interpreter loop
// performs no map lookups and no operand re-decoding.
//
// A plan is private to its Runner (Runners are single-goroutine), so it may
// also hold the Runner's mutable per-version state: the 2-bit
// branch-predictor counters, which are re-initialized in place (zero +
// static hints) when ResetMicroarch bumps the runner's epoch instead of
// being reallocated for every program run.
//
// Exactness contract: executing a plan is bit-identical to the reference
// interpreter it replaced. All cost folding is integer addition of values
// the old loop summed dynamically, and the two float64 quantities involved
// (taken-branch scaling, call-overhead scaling) are rounded to int64 by
// exactly the original expressions, once, at decode time.

// dInstr is one decoded instruction.
type dInstr struct {
	op  ir.Opcode
	a   ir.Reg
	b   ir.Reg
	src ir.Reg
	// def is the register written (ir.NoReg if none), as in ir.Instr.Def.
	def ir.Reg

	imm  int64
	fimm float64

	// uses lists the registers whose ready-times gate issue. For calls it
	// aliases callArgs; for moves with immediates it is empty.
	uses []ir.Reg

	// cost is the static issue cost: machine OpCost plus spill-load cost
	// per spilled use, plus (for calls) linkage overhead and intrinsic
	// cost. Dynamic parts (callee cycles, cache latency) are added at run
	// time exactly as the reference loop did.
	cost int64
	// lat is the machine's result latency for the opcode.
	lat int64
	// storeCost is the spill-store cost charged after the def's ready time
	// is published (0 when the def is not spilled or absent).
	storeCost int64

	// arr is the resolved memory array for LLoad/LStore (nil if the name
	// is unknown — reported at execution time, like the interpreter did).
	arr     *Array
	arrName string

	// callee is the resolved user-function plan for LCall (nil for
	// intrinsics and unresolved names).
	callee   *vplan
	intr     bool
	fn       string
	callArgs []ir.Reg
}

// dBlock is one decoded basic block.
type dBlock struct {
	instrs []dInstr
	origin int

	termKind ir.TermKind
	cond     ir.Reg
	condCost int64 // spill-load cost when the condition register is spilled
	thenIdx  int   // slice index of the Then target
	elseIdx  int   // slice index of the Else target
	val      ir.Reg
}

// vplan is the decoded form of one Version for one Runner. It carries two
// parallel decodings: the dInstr tables the reference engine walks, and the
// micro-op tables (fblocks/mems/calls) the default engine executes
// (exec.go).
type vplan struct {
	v      *Version
	name   string
	blocks []dBlock

	// Micro-op engine tables (built by buildFused from the dInstr decode).
	fblocks []fBlock
	mems    []memInfo
	calls   []callInfo
	// nregs is the micro-op register-file size: LF.NumRegs plus the read- and
	// write-dummy registers backing absent operand slots.
	nregs int

	// predInit is the cold predictor image (static hints applied); pred is
	// the live state, re-initialized from predInit when predEpoch falls
	// behind the runner's epoch.
	predInit  []uint8
	pred      []uint8
	predEpoch uint64

	// perBlockFetch and takenCost are the version's icache-overflow and
	// taken-branch charges, folded with the version's cost modifiers.
	perBlockFetch float64
	takenCost     int64
	mispredict    int64

	numCounters int
	// memGen is the Memory generation the arr pointers were resolved
	// against; Alloc-ing a new array re-resolves them.
	memGen uint64
}

// plan returns the decoded plan for v, building it on first use. A
// one-entry fast path covers the common case of the same version being
// executed invocation after invocation.
func (r *Runner) plan(v *Version) *vplan {
	if r.lastV == v {
		return r.lastPlan
	}
	p, ok := r.plans[v]
	if !ok {
		p = r.decode(v)
	}
	r.lastV, r.lastPlan = v, p
	return p
}

func spillAt(spilled []bool, reg ir.Reg) bool {
	return reg >= 0 && int(reg) < len(spilled) && spilled[reg]
}

// decode builds the plan for v (and, recursively, its callees).
func (r *Runner) decode(v *Version) *vplan {
	m := r.Mach
	lf := v.LF
	p := &vplan{
		v:           v,
		name:        lf.Name,
		numCounters: lf.NumCounters,
		takenCost:   int64(float64(m.TakenBranchCost) * v.Mods.TakenBranchFactor),
		mispredict:  m.MispredictPenalty,
		memGen:      r.Mem.gen,
	}
	// Register the plan before decoding so (hypothetical) call cycles
	// terminate; versions form a DAG, but memoization costs nothing.
	r.plans[v] = p

	if total := v.CodeSize + v.Mods.CodeSizeExtra; total > m.ICacheInstrs {
		overflow := total - m.ICacheInstrs
		p.perBlockFetch = m.FetchPenalty * float64(overflow) / float64(m.ICacheInstrs)
	}

	idx := v.index()
	spilled := v.Alloc.Spilled
	callOverhead := int64(float64(m.CallOverhead) * v.Mods.CallOverheadFactor)

	p.blocks = make([]dBlock, len(lf.Blocks))
	for bi, b := range lf.Blocks {
		db := &p.blocks[bi]
		db.origin = b.Origin
		db.termKind = b.Term.Kind
		switch b.Term.Kind {
		case ir.TermJump:
			db.thenIdx = idx[b.Term.Then]
		case ir.TermBranch:
			db.thenIdx = idx[b.Term.Then]
			db.elseIdx = idx[b.Term.Else]
			db.cond = b.Term.Cond
			if spillAt(spilled, b.Term.Cond) {
				db.condCost = m.SpillLoadCost
			}
		case ir.TermReturn:
			db.val = b.Term.Val
		}

		db.instrs = make([]dInstr, 0, len(b.Instrs))
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.LNop {
				// Nops cost nothing and count nothing; drop them here.
				continue
			}
			d := dInstr{
				op: in.Op, a: in.A, b: in.B, src: in.Src, def: in.Def(),
				imm: in.Imm, fimm: in.FImm,
				cost: m.OpCost[in.Op], lat: m.OpLatency[in.Op],
			}
			switch in.Op {
			case ir.LCount:
				// Zero-cost instrumentation: only the counter ID matters.
				d.cost, d.lat = 0, 0
			case ir.LMovI, ir.LMovF:
				// No operand stalls.
			case ir.LCall:
				d.fn = in.Fn
				d.callArgs = in.CallArgs
				d.uses = in.CallArgs
				for _, u := range in.CallArgs {
					if spillAt(spilled, u) {
						d.cost += m.SpillLoadCost
					}
				}
				d.cost += callOverhead
				if _, ok := ir.IsIntrinsic(in.Fn); ok {
					d.intr = true
					d.cost += m.IntrinsicCost
				} else if cv, ok := v.Callees[in.Fn]; ok {
					if cp, seen := r.plans[cv]; seen {
						d.callee = cp
					} else {
						d.callee = r.decode(cv)
					}
				}
			default:
				for _, u := range [...]ir.Reg{in.A, in.B, in.Src} {
					if u == ir.NoReg {
						continue
					}
					d.uses = append(d.uses, u)
					if spillAt(spilled, u) {
						d.cost += m.SpillLoadCost
					}
				}
				if in.Op == ir.LLoad || in.Op == ir.LStore {
					d.arrName = in.Arr
					d.arr = r.Mem.Get(in.Arr)
				}
			}
			if spillAt(spilled, d.def) {
				d.storeCost = m.SpillStoreCost
			}
			db.instrs = append(db.instrs, d)
		}
	}

	p.predInit = predictorImage(v)
	p.pred = make([]uint8, len(p.predInit))
	p.buildFused()
	// predEpoch 0 is always behind the runner's epoch (which starts at 1),
	// so the first execution initializes pred from predInit.
	return p
}

// buildFused lowers the dInstr decode into the micro-op engine's tables:
// fixed-shape uops (absent operands aliased to the read dummy, absent
// destinations to the write dummy), pre-resolved memory and call bindings,
// folded costs, and each block's step count for the step-limit check.
func (p *vplan) buildFused() {
	lf := p.v.LF
	readDummy := int32(lf.NumRegs)
	writeDummy := readDummy + 1
	p.nregs = lf.NumRegs + 2

	// use maps a register operand slot; absent slots read the dummy.
	use := func(r ir.Reg) int32 {
		if r == ir.NoReg {
			return readDummy
		}
		return int32(r)
	}
	def := func(r ir.Reg) int32 {
		if r == ir.NoReg {
			return writeDummy
		}
		return int32(r)
	}

	p.fblocks = make([]fBlock, len(p.blocks))
	for bi := range p.blocks {
		db := &p.blocks[bi]
		fb := &p.fblocks[bi]
		fb.origin = db.origin
		fb.termKind = db.termKind
		fb.cond = int32(db.cond)
		fb.condCost = db.condCost
		fb.thenIdx = db.thenIdx
		fb.elseIdx = db.elseIdx
		fb.val = int32(db.val)

		uops := make([]uop, 0, len(db.instrs))
		for ii := range db.instrs {
			d := &db.instrs[ii]
			u := uop{
				dst:       def(d.def),
				a:         readDummy,
				b:         readDummy,
				c:         readDummy,
				readyCost: int32(d.cost + d.lat),
				cycleCost: int32(d.cost + d.storeCost),
			}
			switch d.op {
			case ir.LMovI:
				u.kind = uConst
				u.b, u.c = constBits(float64(d.imm))
			case ir.LMovF:
				u.kind = uConst
				u.b, u.c = constBits(d.fimm)
			case ir.LMov:
				u.kind, u.a = uMov, use(d.a)
			case ir.LAdd, ir.LFAdd:
				u.kind, u.a, u.b = uAdd, use(d.a), use(d.b)
			case ir.LSub, ir.LFSub:
				u.kind, u.a, u.b = uSub, use(d.a), use(d.b)
			case ir.LMul, ir.LFMul:
				u.kind, u.a, u.b = uMul, use(d.a), use(d.b)
			case ir.LFDiv:
				u.kind, u.a, u.b = uFDiv, use(d.a), use(d.b)
			case ir.LDiv:
				u.kind, u.a, u.b = uDiv, use(d.a), use(d.b)
			case ir.LMod:
				u.kind, u.a, u.b = uMod, use(d.a), use(d.b)
			case ir.LAnd:
				u.kind, u.a, u.b = uAnd, use(d.a), use(d.b)
			case ir.LOr:
				u.kind, u.a, u.b = uOr, use(d.a), use(d.b)
			case ir.LXor:
				u.kind, u.a, u.b = uXor, use(d.a), use(d.b)
			case ir.LShl:
				u.kind, u.a, u.b = uShl, use(d.a), use(d.b)
			case ir.LShr:
				u.kind, u.a, u.b = uShr, use(d.a), use(d.b)
			case ir.LNeg, ir.LFNeg:
				u.kind, u.a = uNeg, use(d.a)
			case ir.LNot:
				u.kind, u.a = uNot, use(d.a)
			case ir.LCmpEq, ir.LFCmpEq:
				u.kind, u.a, u.b = uCmpEq, use(d.a), use(d.b)
			case ir.LCmpNe, ir.LFCmpNe:
				u.kind, u.a, u.b = uCmpNe, use(d.a), use(d.b)
			case ir.LCmpLt, ir.LFCmpLt:
				u.kind, u.a, u.b = uCmpLt, use(d.a), use(d.b)
			case ir.LCmpLe, ir.LFCmpLe:
				u.kind, u.a, u.b = uCmpLe, use(d.a), use(d.b)
			case ir.LCmpGt, ir.LFCmpGt:
				u.kind, u.a, u.b = uCmpGt, use(d.a), use(d.b)
			case ir.LCmpGe, ir.LFCmpGe:
				u.kind, u.a, u.b = uCmpGe, use(d.a), use(d.b)
			case ir.LSelect:
				u.kind, u.a, u.b, u.c = uSelect, use(d.a), use(d.b), use(d.src)
			case ir.LLoad:
				u.kind, u.a = uLoad, use(d.a)
				u.aux = int32(len(p.mems))
				p.mems = append(p.mems, memInfo{arr: d.arr, name: d.arrName})
			case ir.LStore:
				u.kind, u.a, u.c = uStore, use(d.a), use(d.src)
				u.aux = int32(len(p.mems))
				p.mems = append(p.mems, memInfo{arr: d.arr, name: d.arrName})
			case ir.LCall:
				ci := callInfo{fn: d.fn, callee: d.callee}
				ci.args = make([]int32, len(d.callArgs))
				for j, ar := range d.callArgs {
					ci.args[j] = int32(ar)
				}
				// The first three arguments gate issue through the operand
				// slots; the call cases extend over any remainder.
				for j, ar := range ci.args {
					switch j {
					case 0:
						u.a = ar
					case 1:
						u.b = ar
					case 2:
						u.c = ar
					}
				}
				switch {
				case d.intr:
					u.kind = uCallIntr
				case d.callee != nil:
					u.kind = uCallUser
				default:
					u.kind = uCallBad
				}
				u.aux = int32(len(p.calls))
				p.calls = append(p.calls, ci)
			case ir.LCount:
				u.kind = uCount
				// Pre-resolve the reference's bounds check; -1 drops the
				// bump exactly as an out-of-range ID does there.
				if d.imm >= 0 && d.imm < int64(p.numCounters) {
					u.aux = int32(d.imm)
				} else {
					u.aux = -1
				}
			}
			uops = append(uops, u)
			if u.kind != uCount {
				fb.steps++
			}
		}
		fb.uops = uops
		// Each user call records the steps its block takes after it.
		tail := fb.steps
		for _, u := range uops {
			if u.kind != uCount {
				tail--
			}
			if u.kind == uCallUser {
				p.calls[u.aux].tail = tail
			}
		}
	}

	// Pad mems to a power-of-two length so the interpreter can index it
	// as mems[aux&(len(mems)-1)] with the bounds check elided; real aux
	// values are all below the unpadded length, so the mask never changes
	// them and the padding entries are never touched.
	memLen := 1
	for memLen < len(p.mems) {
		memLen <<= 1
	}
	for len(p.mems) < memLen {
		p.mems = append(p.mems, memInfo{})
	}
}

// constBits splits x's IEEE bits into a uConst's unused operand slots:
// low word in b, high word in c.
func constBits(x float64) (lo, hi int32) {
	bits := math.Float64bits(x)
	return int32(uint32(bits)), int32(uint32(bits >> 32))
}

// predictorImage builds the cold 2-bit predictor state for v: weakly
// not-taken everywhere, or the static-hint image when the version was built
// with guess-branch-probability.
func predictorImage(v *Version) []uint8 {
	p := make([]uint8, len(v.LF.Blocks))
	if v.Mods.StaticPredict {
		for i, b := range v.LF.Blocks {
			if b.Term.Kind == ir.TermBranch {
				switch {
				case b.Term.Likely > 0:
					p[i] = 3
				case b.Term.Likely < 0:
					p[i] = 0
				default:
					p[i] = 1
				}
			}
		}
	}
	return p
}

// sync brings the plan's mutable bindings up to date with the runner: the
// predictor state (per program run) and the resolved array pointers (only
// when the Memory allocated or replaced arrays since decode).
func (p *vplan) sync(r *Runner) {
	if p.predEpoch != r.epoch {
		copy(p.pred, p.predInit)
		p.predEpoch = r.epoch
	}
	if p.memGen != r.Mem.gen {
		for bi := range p.blocks {
			instrs := p.blocks[bi].instrs
			for i := range instrs {
				if instrs[i].arrName != "" {
					instrs[i].arr = r.Mem.Get(instrs[i].arrName)
				}
			}
		}
		for i := range p.mems {
			p.mems[i].arr = r.Mem.Get(p.mems[i].name)
		}
		p.memGen = r.Mem.gen
	}
}
