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
//   - Steps are charged per block, not per op: entering a block charges
//     all its steps at once, and a block that would cross Runner.MaxSteps
//     runs only up to the op that takes step MaxSteps+1, so ErrStepLimit
//     still fires at the exact same step as the reference. Faults and user
//     calls, which need the exact count mid-block, recover it from the
//     op's position (stepsAt).
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
	uConst ukind = iota // dst = float64 from the IEEE bits in b (low) and c (high); LMovI, LMovF
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

	// aux indexes the plan's side tables by kind: mems for uLoad/uStore,
	// calls for the call kinds, and the counter index for uCount (-1: out
	// of range, drop).
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
// so the hot loop performs no name lookups, and hint names the L1 slot the
// site touched last (self-validating; see cache.AccessLine). The hint is a
// slot index, not a pointer, so updating it costs no GC write barrier.
type memInfo struct {
	arr  *Array // nil if the name is unknown (reported at execution time)
	hint cache.Hint
	name string
}

// callInfo is the pre-decoded callee binding of one call micro-op.
type callInfo struct {
	args   []int32
	callee *vplan // nil for intrinsics and unresolved names
	fn     string
	// tail is the number of steps the call's block takes after the call,
	// so a user call recovers its exact step count without a scan.
	tail int64
}

// fBlock is one basic block in micro-op form.
type fBlock struct {
	uops []uop
	// steps is the block's dynamic-instruction count (uCount pseudo-ops
	// excluded), charged on block entry.
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
	mems := p.mems
	if len(rf) == 0 || len(mems) == 0 {
		// Unreachable (nregs ≥ 2, mems is padded to ≥ 1 entry), but the
		// guard lets the compiler prove every masked index below in range.
		panic("sim: empty register file or memory table")
	}
	// The masks are no-ops for the indices decode emits (all below the
	// unpadded lengths; both tables are power-of-two padded). Indexing as
	// t[uint(uint32(x))&mask] keeps the index unsigned and ≤ len(t)-1, so
	// the compiler drops the bounds checks.
	mask := uint(len(rf) - 1)
	memMask := uint(len(mems) - 1)
	var ai uint
	for i, prm := range lf.Params {
		if prm.IsArray {
			continue
		}
		if reg := lf.ParamRegs[i]; ai < uint(len(args)) && reg != ir.NoReg {
			rf[uint(uint32(reg))&mask].val = args[ai]
		}
		ai++
	}

	var (
		fblocks       = p.fblocks
		pred          = p.pred
		perBlockFetch = p.perBlockFetch
		hier          = r.Cache
		countBlocks   = depth == 0 && len(ex.stats.BlockCounts) > 0
		// steps counts through the end of run, the current block's ops up
		// to any step-limit trip (stepsAt recovers the exact count).
		steps    = ex.steps
		maxSteps = ex.maxSteps

		cycle        int64
		fetchPenalty float64
	)

	cur := 0 // slice index of current block
	for {
		bl := &fblocks[cur]
		if countBlocks && bl.origin >= 0 && bl.origin < len(ex.stats.BlockCounts) {
			ex.stats.BlockCounts[bl.origin]++
		}
		fetchPenalty += perBlockFetch

		// Charge the block's steps on entry. A block that crosses the limit
		// runs only its ops before the one taking step maxSteps+1.
		uops := bl.uops
		steps += bl.steps
		run := uops
		if steps > maxSteps {
			run = untilTrip(uops, maxSteps-(steps-bl.steps))
			steps = maxSteps
		}
		for i := 0; i < len(run); i++ {
			u := &run[i]
			// Issue: stall until the operands are ready. Gating lives inside
			// each case so an op only loads the ready slots it actually uses.
			issue := cycle
			var val float64
			switch u.kind {
			case uCount:
				if u.aux >= 0 {
					ex.stats.Counters[u.aux]++
				}
				continue
			case uConst:
				val = math.Float64frombits(uint64(uint32(u.b)) | uint64(uint32(u.c))<<32)
			case uMov:
				if t := rf[uint(uint32(u.a))&mask].ready; t > issue {
					issue = t
				}
				val = rf[uint(uint32(u.a))&mask].val
			case uAdd:
				if t := rf[uint(uint32(u.a))&mask].ready; t > issue {
					issue = t
				}
				if t := rf[uint(uint32(u.b))&mask].ready; t > issue {
					issue = t
				}
				val = rf[uint(uint32(u.a))&mask].val + rf[uint(uint32(u.b))&mask].val
			case uSub:
				if t := rf[uint(uint32(u.a))&mask].ready; t > issue {
					issue = t
				}
				if t := rf[uint(uint32(u.b))&mask].ready; t > issue {
					issue = t
				}
				val = rf[uint(uint32(u.a))&mask].val - rf[uint(uint32(u.b))&mask].val
			case uMul:
				if t := rf[uint(uint32(u.a))&mask].ready; t > issue {
					issue = t
				}
				if t := rf[uint(uint32(u.b))&mask].ready; t > issue {
					issue = t
				}
				val = rf[uint(uint32(u.a))&mask].val * rf[uint(uint32(u.b))&mask].val
			case uFDiv:
				if t := rf[uint(uint32(u.a))&mask].ready; t > issue {
					issue = t
				}
				if t := rf[uint(uint32(u.b))&mask].ready; t > issue {
					issue = t
				}
				val = rf[uint(uint32(u.a))&mask].val / rf[uint(uint32(u.b))&mask].val
			case uAnd:
				if t := rf[uint(uint32(u.a))&mask].ready; t > issue {
					issue = t
				}
				if t := rf[uint(uint32(u.b))&mask].ready; t > issue {
					issue = t
				}
				val = float64(int64(rf[uint(uint32(u.a))&mask].val) & int64(rf[uint(uint32(u.b))&mask].val))
			case uOr:
				if t := rf[uint(uint32(u.a))&mask].ready; t > issue {
					issue = t
				}
				if t := rf[uint(uint32(u.b))&mask].ready; t > issue {
					issue = t
				}
				val = float64(int64(rf[uint(uint32(u.a))&mask].val) | int64(rf[uint(uint32(u.b))&mask].val))
			case uXor:
				if t := rf[uint(uint32(u.a))&mask].ready; t > issue {
					issue = t
				}
				if t := rf[uint(uint32(u.b))&mask].ready; t > issue {
					issue = t
				}
				val = float64(int64(rf[uint(uint32(u.a))&mask].val) ^ int64(rf[uint(uint32(u.b))&mask].val))
			case uShl:
				if t := rf[uint(uint32(u.a))&mask].ready; t > issue {
					issue = t
				}
				if t := rf[uint(uint32(u.b))&mask].ready; t > issue {
					issue = t
				}
				val = float64(int64(rf[uint(uint32(u.a))&mask].val) << (uint64(int64(rf[uint(uint32(u.b))&mask].val)) & 63))
			case uShr:
				if t := rf[uint(uint32(u.a))&mask].ready; t > issue {
					issue = t
				}
				if t := rf[uint(uint32(u.b))&mask].ready; t > issue {
					issue = t
				}
				val = float64(int64(rf[uint(uint32(u.a))&mask].val) >> (uint64(int64(rf[uint(uint32(u.b))&mask].val)) & 63))
			case uNeg:
				if t := rf[uint(uint32(u.a))&mask].ready; t > issue {
					issue = t
				}
				val = -rf[uint(uint32(u.a))&mask].val
			case uNot:
				if t := rf[uint(uint32(u.a))&mask].ready; t > issue {
					issue = t
				}
				if rf[uint(uint32(u.a))&mask].val == 0 {
					val = 1
				}
			case uCmpEq:
				if t := rf[uint(uint32(u.a))&mask].ready; t > issue {
					issue = t
				}
				if t := rf[uint(uint32(u.b))&mask].ready; t > issue {
					issue = t
				}
				val = b2f(rf[uint(uint32(u.a))&mask].val == rf[uint(uint32(u.b))&mask].val)
			case uCmpNe:
				if t := rf[uint(uint32(u.a))&mask].ready; t > issue {
					issue = t
				}
				if t := rf[uint(uint32(u.b))&mask].ready; t > issue {
					issue = t
				}
				val = b2f(rf[uint(uint32(u.a))&mask].val != rf[uint(uint32(u.b))&mask].val)
			case uCmpLt:
				if t := rf[uint(uint32(u.a))&mask].ready; t > issue {
					issue = t
				}
				if t := rf[uint(uint32(u.b))&mask].ready; t > issue {
					issue = t
				}
				val = b2f(rf[uint(uint32(u.a))&mask].val < rf[uint(uint32(u.b))&mask].val)
			case uCmpLe:
				if t := rf[uint(uint32(u.a))&mask].ready; t > issue {
					issue = t
				}
				if t := rf[uint(uint32(u.b))&mask].ready; t > issue {
					issue = t
				}
				val = b2f(rf[uint(uint32(u.a))&mask].val <= rf[uint(uint32(u.b))&mask].val)
			case uCmpGt:
				if t := rf[uint(uint32(u.a))&mask].ready; t > issue {
					issue = t
				}
				if t := rf[uint(uint32(u.b))&mask].ready; t > issue {
					issue = t
				}
				val = b2f(rf[uint(uint32(u.a))&mask].val > rf[uint(uint32(u.b))&mask].val)
			case uCmpGe:
				if t := rf[uint(uint32(u.a))&mask].ready; t > issue {
					issue = t
				}
				if t := rf[uint(uint32(u.b))&mask].ready; t > issue {
					issue = t
				}
				val = b2f(rf[uint(uint32(u.a))&mask].val >= rf[uint(uint32(u.b))&mask].val)
			case uSelect:
				if t := rf[uint(uint32(u.a))&mask].ready; t > issue {
					issue = t
				}
				if t := rf[uint(uint32(u.b))&mask].ready; t > issue {
					issue = t
				}
				if t := rf[uint(uint32(u.c))&mask].ready; t > issue {
					issue = t
				}
				if rf[uint(uint32(u.a))&mask].val != 0 {
					val = rf[uint(uint32(u.b))&mask].val
				} else {
					val = rf[uint(uint32(u.c))&mask].val
				}
			case uDiv:
				if t := rf[uint(uint32(u.a))&mask].ready; t > issue {
					issue = t
				}
				if t := rf[uint(uint32(u.b))&mask].ready; t > issue {
					issue = t
				}
				d := int64(rf[uint(uint32(u.b))&mask].val)
				if d == 0 {
					ex.steps = stepsAt(steps, run, i)
					return 0, cycle, fmt.Errorf("%w: integer division by zero in %s", ErrRuntime, p.name)
				}
				val = float64(int64(rf[uint(uint32(u.a))&mask].val) / d)
			case uMod:
				if t := rf[uint(uint32(u.a))&mask].ready; t > issue {
					issue = t
				}
				if t := rf[uint(uint32(u.b))&mask].ready; t > issue {
					issue = t
				}
				d := int64(rf[uint(uint32(u.b))&mask].val)
				if d == 0 {
					ex.steps = stepsAt(steps, run, i)
					return 0, cycle, fmt.Errorf("%w: integer modulo by zero in %s", ErrRuntime, p.name)
				}
				val = float64(int64(rf[uint(uint32(u.a))&mask].val) % d)
			case uLoad:
				if t := rf[uint(uint32(u.a))&mask].ready; t > issue {
					issue = t
				}
				mi := &mems[uint(uint32(u.aux))&memMask]
				arr := mi.arr
				if arr == nil {
					ex.steps = stepsAt(steps, run, i)
					return 0, cycle, fmt.Errorf("%w: unknown array %q", ErrRuntime, mi.name)
				}
				i64 := int64(rf[uint(uint32(u.a))&mask].val)
				if uint64(i64) >= uint64(len(arr.Data)) {
					ex.steps = stepsAt(steps, run, i)
					return 0, cycle, fmt.Errorf("%w: %s[%d] out of range [0,%d) in %s",
						ErrRuntime, mi.name, i64, len(arr.Data), p.name)
				}
				rf[uint(uint32(u.dst))&mask].val = arr.Data[i64]
				addr := arr.Base + uint64(i64)*8
				lat := hier.AccessLine(mi.hint, addr)
				if lat < 0 {
					lat, mi.hint = hier.AccessMiss(addr)
				}
				rf[uint(uint32(u.dst))&mask].ready = issue + int64(u.readyCost) + lat
				cycle = issue + int64(u.cycleCost)
				continue
			case uStore:
				if t := rf[uint(uint32(u.a))&mask].ready; t > issue {
					issue = t
				}
				if t := rf[uint(uint32(u.c))&mask].ready; t > issue {
					issue = t
				}
				mi := &mems[uint(uint32(u.aux))&memMask]
				arr := mi.arr
				if arr == nil {
					ex.steps = stepsAt(steps, run, i)
					return 0, cycle, fmt.Errorf("%w: unknown array %q", ErrRuntime, mi.name)
				}
				data := arr.Data
				i64 := int64(rf[uint(uint32(u.a))&mask].val)
				if uint64(i64) >= uint64(len(data)) {
					ex.steps = stepsAt(steps, run, i)
					return 0, cycle, fmt.Errorf("%w: %s[%d] out of range [0,%d) in %s",
						ErrRuntime, mi.name, i64, len(data), p.name)
				}
				if r.RecordWrites {
					r.WriteLog = append(r.WriteLog, WriteRec{Arr: mi.name, Idx: i64, Old: data[i64]})
				}
				data[i64] = rf[uint(uint32(u.c))&mask].val
				// Store completion can overlap with later work: the access
				// updates cache state but charges no latency here.
				addr := arr.Base + uint64(i64)*8
				if hier.AccessLine(mi.hint, addr) < 0 {
					_, mi.hint = hier.AccessMiss(addr)
				}
				cycle = issue + int64(u.cycleCost)
				continue
			case uCallIntr:
				ci := &p.calls[u.aux]
				cargs := ci.args
				callArgs := r.callBuf(depth, len(cargs))
				for j, ar := range cargs {
					if t := rf[uint(uint32(ar))&mask].ready; t > issue {
						issue = t
					}
					callArgs[j] = rf[uint(uint32(ar))&mask].val
				}
				iv, err := intrinsic(ci.fn, callArgs)
				if err != nil {
					ex.steps = stepsAt(steps, run, i)
					return 0, cycle, err
				}
				val = iv
			case uCallUser:
				ci := &p.calls[u.aux]
				cargs := ci.args
				callArgs := r.callBuf(depth, len(cargs))
				for j, ar := range cargs {
					if t := rf[uint(uint32(ar))&mask].ready; t > issue {
						issue = t
					}
					callArgs[j] = rf[uint(uint32(ar))&mask].val
				}
				// The callee counts on from the exact step; afterwards,
				// rebase the block's charge on top of the callee's steps
				// and, if the rest of the block now crosses the limit, stop
				// where it trips.
				tail := ci.tail
				if len(run) < len(uops) {
					// The block trips before its end: steps counts only
					// through run.
					tail = realOps(run[i+1:])
				}
				ex.steps = steps - tail
				rv, ccycles, err := ex.execFused(ci.callee, callArgs, depth+1)
				if err != nil {
					return 0, cycle, err
				}
				steps = ex.steps + tail
				if steps > maxSteps {
					run = run[:i+1+len(untilTrip(run[i+1:], maxSteps-ex.steps))]
					steps = maxSteps
				}
				rf[uint(uint32(u.dst))&mask].val = rv
				rf[uint(uint32(u.dst))&mask].ready = issue + int64(u.readyCost) + ccycles
				cycle = issue + int64(u.cycleCost) + ccycles
				continue
			case uCallBad:
				ex.steps = stepsAt(steps, run, i)
				return 0, cycle, fmt.Errorf("%w: unresolved call to %q", ErrRuntime, p.calls[u.aux].fn)
			}

			rf[uint(uint32(u.dst))&mask].val = val
			rf[uint(uint32(u.dst))&mask].ready = issue + int64(u.readyCost)
			cycle = issue + int64(u.cycleCost)
		}
		if len(run) < len(uops) {
			// The op after run takes step maxSteps+1.
			ex.steps = maxSteps + 1
			return 0, cycle, fmt.Errorf("%w in %s", ErrStepLimit, p.name)
		}

		// Terminator — identical to the reference engine.
		switch bl.termKind {
		case ir.TermReturn:
			ex.steps = steps
			total := cycle + int64(fetchPenalty)
			if bl.val >= 0 {
				return rf[uint(uint32(bl.val))&mask].val, total, nil
			}
			return math.NaN(), total, nil
		case ir.TermJump:
			next := bl.thenIdx
			if next != cur+1 {
				cycle += p.takenCost
			}
			cur = next
		case ir.TermBranch:
			if t := rf[uint(uint32(bl.cond))&mask].ready; t > cycle {
				cycle = t
			}
			cycle += bl.condCost
			taken := rf[uint(uint32(bl.cond))&mask].val != 0
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
}

// untilTrip returns the prefix of uops before the op that takes step
// budget+1 of the block: the op that trips the step limit. The caller
// guarantees uops takes more than budget steps.
func untilTrip(uops []uop, budget int64) []uop {
	for i := range uops {
		if uops[i].kind == uCount {
			continue
		}
		if budget == 0 {
			return uops[:i]
		}
		budget--
	}
	return uops
}

// realOps counts the steps uops take (uCount pseudo-ops take none).
func realOps(uops []uop) int64 {
	var n int64
	for i := range uops {
		if uops[i].kind != uCount {
			n++
		}
	}
	return n
}

// stepsAt recovers the exact step count just after run[i] from charged,
// which counts through the end of run: the ops after i have not yet taken
// their steps.
func stepsAt(charged int64, run []uop, i int) int64 {
	return charged - realOps(run[i+1:])
}
