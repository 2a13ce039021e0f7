package sim

import (
	"fmt"
	"math"

	"peak/internal/cache"
	"peak/internal/ir"
)

// This file is the micro-op execution engine, the Runner's default. It
// executes the compact pre-decoded micro-op tables built by plan.go:
//
//   - Every LIR instruction is decoded to one fixed-shape micro-op (uop):
//     operand-shape branching (use lists, def presence, immediate kinds,
//     int/FP cost classes) is folded away at decode time, so the inner loop
//     dispatches on one dense kind byte and each case gates issue on exactly
//     the operand slots its shape uses. Absent operands point at a
//     read-dummy register whose ready time is always zero; absent
//     destinations point at a write-dummy register nothing reads.
//
//   - The step-limit decision is hoisted out of the inner loop: a block
//     whose steps all fit under Runner.MaxSteps runs its per-op step
//     checks against an unreachable limit, and only a block within
//     striking distance checks against MaxSteps itself, so ErrStepLimit
//     still fires at the exact same step as the reference.
//
// The reference interpreter (ref.go) defines the semantics; this engine is
// bit-identical to it in every observable output, enforced by the
// differential tests in diff_test.go.

// ukind is a dense micro-op kind: the LIR opcode space folded down by
// operand shape. Integer and FP arithmetic compute identically on float64
// and differ only in pre-folded costs, so they share a micro-op kind.
type ukind uint8

const (
	// Pure-ALU kinds: no faults, fully static latency.
	uConst ukind = iota // dst = consts[aux] (LMovI pre-converted to float64, LMovF)
	uMov                // dst = a
	uAdd                // LAdd, LFAdd
	uSub                // LSub, LFSub
	uMul                // LMul, LFMul
	uFDiv               // LFDiv (IEEE: cannot fault)
	uAnd
	uOr
	uXor
	uShl
	uShr
	uNeg // LNeg, LFNeg
	uNot
	uCmpEq // LCmpEq, LFCmpEq
	uCmpNe
	uCmpLt
	uCmpLe
	uCmpGt
	uCmpGe
	uSelect // dst = a != 0 ? b : c

	// Faulting / dynamic-latency kinds.
	uDiv  // LDiv (faults on divide by zero)
	uMod  // LMod
	uLoad // aux indexes vplan.mems
	uStore
	uCallIntr // aux indexes vplan.calls
	uCallUser
	uCallBad // unresolved callee: runtime error on execution

	// Pseudo-op: no step accounting, no issue machinery.
	uCount // counter bump
)

// uop is one decoded micro-op. Fixed 3-slot operand shape: unused operand
// slots alias the plan's read-dummy register (ready pinned at 0), absent
// destinations alias the write-dummy register (never read).
type uop struct {
	dst int32
	a   int32
	b   int32
	c   int32

	// aux indexes the plan's side tables by kind: consts for uConst,
	// mems for uLoad/uStore, calls for the call kinds, and the counter
	// index for uCount (-1: out of range, drop).
	aux int32

	// readyCost = static issue cost + result latency; cycleCost = static
	// issue cost + spill-store cost. Dynamic parts (cache latency, callee
	// cycles) are added at run time exactly as the reference engine does.
	readyCost int32
	cycleCost int32

	kind ukind
}

// memInfo is the memory fast path of one load/store site: the array pointer
// is pre-resolved at decode (re-resolved by vplan.sync when Memory moves),
// so the hot loop performs no name lookups, and hint caches the L1 line the
// site touched last (self-validating; see cache.AccessLine).
type memInfo struct {
	arr  *Array // nil if the name is unknown (reported at execution time)
	hint *cache.Line
	name string
}

// callInfo is the pre-decoded callee binding of one call micro-op.
type callInfo struct {
	args   []int32
	callee *vplan // nil for intrinsics and unresolved names
	fn     string
}

// fBlock is one basic block in micro-op form.
type fBlock struct {
	uops []uop
	// steps is the block's dynamic-instruction count (uCount pseudo-ops
	// excluded), used to decide whether its per-op step checks can trip.
	steps  int64
	origin int

	termKind ir.TermKind
	cond     int32
	condCost int64
	thenIdx  int
	elseIdx  int
	val      int32 // return register (-1 when absent)
}

// execFused executes plan p on the micro-op engine. It mirrors execRef's
// observable behaviour exactly; see the file comment for the contract.
func (ex *execState) execFused(p *vplan, args []float64, depth int) (float64, int64, error) {
	if depth > maxCallDepth {
		return 0, 0, fmt.Errorf("%w: call depth exceeded", ErrRuntime)
	}
	r := ex.r
	p.sync(r)
	lf := p.v.LF
	rf := r.frameFused(depth, p.nregs)
	// mask is a no-op for the register indices decode emits (all < nregs ≤
	// len(rf), a power of two); its sole purpose is bounds-check elision.
	mask := len(rf) - 1
	ai := 0
	for i, prm := range lf.Params {
		if prm.IsArray {
			continue
		}
		if ai < len(args) && lf.ParamRegs[i] != ir.NoReg {
			rf[lf.ParamRegs[i]].val = args[ai]
		}
		ai++
	}

	var (
		fblocks       = p.fblocks
		mems          = p.mems
		memMask       = len(p.mems) - 1 // mems is power-of-two padded
		consts        = p.consts
		constMask     = len(p.consts) - 1 // consts is power-of-two padded
		pred          = p.pred
		perBlockFetch = p.perBlockFetch
		stats         = ex.stats
		counters      = stats.Counters
		hier          = r.Cache
		recordWrites  = r.RecordWrites
		countBlocks   = depth == 0 && len(stats.BlockCounts) > 0
		steps         = ex.steps
		maxSteps      = ex.maxSteps

		cycle        int64
		fetchPenalty float64
	)

	cur := 0 // slice index of current block
	for {
		bl := &fblocks[cur]
		if countBlocks && bl.origin >= 0 && bl.origin < len(stats.BlockCounts) {
			stats.BlockCounts[bl.origin]++
		}
		fetchPenalty += perBlockFetch

		// Bulk step accounting: when the whole block fits under the step
		// limit, the inner loop runs unchecked (blockLimit is never hit);
		// otherwise per-op checks trip at the exact reference step.
		blockLimit := int64(math.MaxInt64)
		if steps+bl.steps > maxSteps {
			blockLimit = maxSteps
		}

		uops := bl.uops
		i := 0
		for i < len(uops) {
			u := &uops[i]
			// Issue: stall until the operands are ready. Gating lives inside
			// each case so an op only loads the ready slots it actually uses,
			// and each real op opens with its step-limit check (pseudo-ops
			// take no step).
			issue := cycle
			var val float64
			switch u.kind {
			case uCount:
				if u.aux >= 0 {
					counters[u.aux]++
				}
				i++
				continue
			case uConst:
				if steps++; steps > blockLimit {
					goto stepLimit
				}
				val = consts[int(u.aux)&constMask]
			case uMov:
				if steps++; steps > blockLimit {
					goto stepLimit
				}
				if t := rf[int(u.a)&mask].ready; t > issue {
					issue = t
				}
				val = rf[int(u.a)&mask].val
			case uAdd:
				if steps++; steps > blockLimit {
					goto stepLimit
				}
				if t := rf[int(u.a)&mask].ready; t > issue {
					issue = t
				}
				if t := rf[int(u.b)&mask].ready; t > issue {
					issue = t
				}
				val = rf[int(u.a)&mask].val + rf[int(u.b)&mask].val
			case uSub:
				if steps++; steps > blockLimit {
					goto stepLimit
				}
				if t := rf[int(u.a)&mask].ready; t > issue {
					issue = t
				}
				if t := rf[int(u.b)&mask].ready; t > issue {
					issue = t
				}
				val = rf[int(u.a)&mask].val - rf[int(u.b)&mask].val
			case uMul:
				if steps++; steps > blockLimit {
					goto stepLimit
				}
				if t := rf[int(u.a)&mask].ready; t > issue {
					issue = t
				}
				if t := rf[int(u.b)&mask].ready; t > issue {
					issue = t
				}
				val = rf[int(u.a)&mask].val * rf[int(u.b)&mask].val
			case uFDiv:
				if steps++; steps > blockLimit {
					goto stepLimit
				}
				if t := rf[int(u.a)&mask].ready; t > issue {
					issue = t
				}
				if t := rf[int(u.b)&mask].ready; t > issue {
					issue = t
				}
				val = rf[int(u.a)&mask].val / rf[int(u.b)&mask].val
			case uAnd:
				if steps++; steps > blockLimit {
					goto stepLimit
				}
				if t := rf[int(u.a)&mask].ready; t > issue {
					issue = t
				}
				if t := rf[int(u.b)&mask].ready; t > issue {
					issue = t
				}
				val = float64(int64(rf[int(u.a)&mask].val) & int64(rf[int(u.b)&mask].val))
			case uOr:
				if steps++; steps > blockLimit {
					goto stepLimit
				}
				if t := rf[int(u.a)&mask].ready; t > issue {
					issue = t
				}
				if t := rf[int(u.b)&mask].ready; t > issue {
					issue = t
				}
				val = float64(int64(rf[int(u.a)&mask].val) | int64(rf[int(u.b)&mask].val))
			case uXor:
				if steps++; steps > blockLimit {
					goto stepLimit
				}
				if t := rf[int(u.a)&mask].ready; t > issue {
					issue = t
				}
				if t := rf[int(u.b)&mask].ready; t > issue {
					issue = t
				}
				val = float64(int64(rf[int(u.a)&mask].val) ^ int64(rf[int(u.b)&mask].val))
			case uShl:
				if steps++; steps > blockLimit {
					goto stepLimit
				}
				if t := rf[int(u.a)&mask].ready; t > issue {
					issue = t
				}
				if t := rf[int(u.b)&mask].ready; t > issue {
					issue = t
				}
				val = float64(int64(rf[int(u.a)&mask].val) << (uint64(int64(rf[int(u.b)&mask].val)) & 63))
			case uShr:
				if steps++; steps > blockLimit {
					goto stepLimit
				}
				if t := rf[int(u.a)&mask].ready; t > issue {
					issue = t
				}
				if t := rf[int(u.b)&mask].ready; t > issue {
					issue = t
				}
				val = float64(int64(rf[int(u.a)&mask].val) >> (uint64(int64(rf[int(u.b)&mask].val)) & 63))
			case uNeg:
				if steps++; steps > blockLimit {
					goto stepLimit
				}
				if t := rf[int(u.a)&mask].ready; t > issue {
					issue = t
				}
				val = -rf[int(u.a)&mask].val
			case uNot:
				if steps++; steps > blockLimit {
					goto stepLimit
				}
				if t := rf[int(u.a)&mask].ready; t > issue {
					issue = t
				}
				if rf[int(u.a)&mask].val == 0 {
					val = 1
				}
			case uCmpEq:
				if steps++; steps > blockLimit {
					goto stepLimit
				}
				if t := rf[int(u.a)&mask].ready; t > issue {
					issue = t
				}
				if t := rf[int(u.b)&mask].ready; t > issue {
					issue = t
				}
				val = b2f(rf[int(u.a)&mask].val == rf[int(u.b)&mask].val)
			case uCmpNe:
				if steps++; steps > blockLimit {
					goto stepLimit
				}
				if t := rf[int(u.a)&mask].ready; t > issue {
					issue = t
				}
				if t := rf[int(u.b)&mask].ready; t > issue {
					issue = t
				}
				val = b2f(rf[int(u.a)&mask].val != rf[int(u.b)&mask].val)
			case uCmpLt:
				if steps++; steps > blockLimit {
					goto stepLimit
				}
				if t := rf[int(u.a)&mask].ready; t > issue {
					issue = t
				}
				if t := rf[int(u.b)&mask].ready; t > issue {
					issue = t
				}
				val = b2f(rf[int(u.a)&mask].val < rf[int(u.b)&mask].val)
			case uCmpLe:
				if steps++; steps > blockLimit {
					goto stepLimit
				}
				if t := rf[int(u.a)&mask].ready; t > issue {
					issue = t
				}
				if t := rf[int(u.b)&mask].ready; t > issue {
					issue = t
				}
				val = b2f(rf[int(u.a)&mask].val <= rf[int(u.b)&mask].val)
			case uCmpGt:
				if steps++; steps > blockLimit {
					goto stepLimit
				}
				if t := rf[int(u.a)&mask].ready; t > issue {
					issue = t
				}
				if t := rf[int(u.b)&mask].ready; t > issue {
					issue = t
				}
				val = b2f(rf[int(u.a)&mask].val > rf[int(u.b)&mask].val)
			case uCmpGe:
				if steps++; steps > blockLimit {
					goto stepLimit
				}
				if t := rf[int(u.a)&mask].ready; t > issue {
					issue = t
				}
				if t := rf[int(u.b)&mask].ready; t > issue {
					issue = t
				}
				val = b2f(rf[int(u.a)&mask].val >= rf[int(u.b)&mask].val)
			case uSelect:
				if steps++; steps > blockLimit {
					goto stepLimit
				}
				if t := rf[int(u.a)&mask].ready; t > issue {
					issue = t
				}
				if t := rf[int(u.b)&mask].ready; t > issue {
					issue = t
				}
				if t := rf[int(u.c)&mask].ready; t > issue {
					issue = t
				}
				if rf[int(u.a)&mask].val != 0 {
					val = rf[int(u.b)&mask].val
				} else {
					val = rf[int(u.c)&mask].val
				}
			case uDiv:
				if steps++; steps > blockLimit {
					goto stepLimit
				}
				if t := rf[int(u.a)&mask].ready; t > issue {
					issue = t
				}
				if t := rf[int(u.b)&mask].ready; t > issue {
					issue = t
				}
				d := int64(rf[int(u.b)&mask].val)
				if d == 0 {
					ex.steps = steps
					return 0, cycle, fmt.Errorf("%w: integer division by zero in %s", ErrRuntime, p.name)
				}
				val = float64(int64(rf[int(u.a)&mask].val) / d)
			case uMod:
				if steps++; steps > blockLimit {
					goto stepLimit
				}
				if t := rf[int(u.a)&mask].ready; t > issue {
					issue = t
				}
				if t := rf[int(u.b)&mask].ready; t > issue {
					issue = t
				}
				d := int64(rf[int(u.b)&mask].val)
				if d == 0 {
					ex.steps = steps
					return 0, cycle, fmt.Errorf("%w: integer modulo by zero in %s", ErrRuntime, p.name)
				}
				val = float64(int64(rf[int(u.a)&mask].val) % d)
			case uLoad:
				if steps++; steps > blockLimit {
					goto stepLimit
				}
				if t := rf[int(u.a)&mask].ready; t > issue {
					issue = t
				}
				mi := &mems[int(u.aux)&memMask]
				arr := mi.arr
				if arr == nil {
					ex.steps = steps
					return 0, cycle, fmt.Errorf("%w: unknown array %q", ErrRuntime, mi.name)
				}
				i64 := int64(rf[int(u.a)&mask].val)
				if uint64(i64) >= uint64(len(arr.Data)) {
					ex.steps = steps
					return 0, cycle, fmt.Errorf("%w: %s[%d] out of range [0,%d) in %s",
						ErrRuntime, mi.name, i64, len(arr.Data), p.name)
				}
				rf[int(u.dst)&mask].val = arr.Data[i64]
				addr := arr.Base + uint64(i64)*8
				lat := hier.AccessLine(mi.hint, addr)
				if lat < 0 {
					lat, mi.hint = hier.AccessMiss(addr)
				}
				rf[int(u.dst)&mask].ready = issue + int64(u.readyCost) + lat
				cycle = issue + int64(u.cycleCost)
				i++
				continue
			case uStore:
				if steps++; steps > blockLimit {
					goto stepLimit
				}
				if t := rf[int(u.a)&mask].ready; t > issue {
					issue = t
				}
				if t := rf[int(u.c)&mask].ready; t > issue {
					issue = t
				}
				mi := &mems[int(u.aux)&memMask]
				arr := mi.arr
				if arr == nil {
					ex.steps = steps
					return 0, cycle, fmt.Errorf("%w: unknown array %q", ErrRuntime, mi.name)
				}
				i64 := int64(rf[int(u.a)&mask].val)
				if uint64(i64) >= uint64(len(arr.Data)) {
					ex.steps = steps
					return 0, cycle, fmt.Errorf("%w: %s[%d] out of range [0,%d) in %s",
						ErrRuntime, mi.name, i64, len(arr.Data), p.name)
				}
				if recordWrites {
					r.WriteLog = append(r.WriteLog, WriteRec{Arr: mi.name, Idx: i64, Old: arr.Data[i64]})
				}
				arr.Data[i64] = rf[int(u.c)&mask].val
				// Store completion can overlap with later work: the access
				// updates cache state but charges no latency here.
				addr := arr.Base + uint64(i64)*8
				if hier.AccessLine(mi.hint, addr) < 0 {
					_, mi.hint = hier.AccessMiss(addr)
				}
				cycle = issue + int64(u.cycleCost)
				i++
				continue
			case uCallIntr:
				if steps++; steps > blockLimit {
					goto stepLimit
				}
				ci := &p.calls[u.aux]
				cargs := ci.args
				callArgs := r.callBuf(depth, len(cargs))
				for j, ar := range cargs {
					if t := rf[int(ar)&mask].ready; t > issue {
						issue = t
					}
					callArgs[j] = rf[int(ar)&mask].val
				}
				iv, err := intrinsic(ci.fn, callArgs)
				if err != nil {
					ex.steps = steps
					return 0, cycle, err
				}
				val = iv
			case uCallUser:
				if steps++; steps > blockLimit {
					goto stepLimit
				}
				ci := &p.calls[u.aux]
				cargs := ci.args
				callArgs := r.callBuf(depth, len(cargs))
				for j, ar := range cargs {
					if t := rf[int(ar)&mask].ready; t > issue {
						issue = t
					}
					callArgs[j] = rf[int(ar)&mask].val
				}
				ex.steps = steps
				rv, ccycles, err := ex.execFused(ci.callee, callArgs, depth+1)
				steps = ex.steps
				if err != nil {
					return 0, cycle, err
				}
				// The callee consumed step budget: re-arm per-op checking
				// if the rest of the block could now cross the limit.
				if blockLimit == math.MaxInt64 && steps+bl.steps > maxSteps {
					blockLimit = maxSteps
				}
				rf[int(u.dst)&mask].val = rv
				rf[int(u.dst)&mask].ready = issue + int64(u.readyCost) + ccycles
				cycle = issue + int64(u.cycleCost) + ccycles
				i++
				continue
			case uCallBad:
				if steps++; steps > blockLimit {
					goto stepLimit
				}
				ex.steps = steps
				return 0, cycle, fmt.Errorf("%w: unresolved call to %q", ErrRuntime, p.calls[u.aux].fn)
			}

			rf[int(u.dst)&mask].val = val
			rf[int(u.dst)&mask].ready = issue + int64(u.readyCost)
			cycle = issue + int64(u.cycleCost)
			i++
		}

		// Terminator — identical to the reference engine.
		switch bl.termKind {
		case ir.TermReturn:
			ex.steps = steps
			total := cycle + int64(fetchPenalty)
			if bl.val >= 0 {
				return rf[int(bl.val)&mask].val, total, nil
			}
			return math.NaN(), total, nil
		case ir.TermJump:
			next := bl.thenIdx
			if next != cur+1 {
				cycle += p.takenCost
			}
			cur = next
		case ir.TermBranch:
			if t := rf[int(bl.cond)&mask].ready; t > cycle {
				cycle = t
			}
			cycle += bl.condCost
			taken := rf[int(bl.cond)&mask].val != 0
			state := pred[cur]
			predTaken := state >= 2
			if predTaken != taken {
				cycle += p.mispredict
			}
			if taken && state < 3 {
				state++
			} else if !taken && state > 0 {
				state--
			}
			pred[cur] = state

			var next int
			if taken {
				next = bl.thenIdx
			} else {
				next = bl.elseIdx
			}
			if next != cur+1 {
				cycle += p.takenCost
			}
			cur = next
		}
	}

	// Reached only by goto from a per-op step check: the checked path is
	// armed (blockLimit == maxSteps) and this op crossed the limit.
stepLimit:
	ex.steps = steps
	return 0, cycle, fmt.Errorf("%w in %s", ErrStepLimit, p.name)
}
