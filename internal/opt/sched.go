package opt

import (
	"slices"

	"peak/internal/ir"
)

// schedOpts configures the list scheduler.
type schedOpts struct {
	// interblock lets loads migrate into a unique jump-predecessor
	// (sched-interblock).
	interblock bool
	// strictAlias relaxes memory ordering to same-array dependences.
	strictAlias bool
	// spillAware weights latencies of spilled registers (schedule-insns2
	// runs post-allocation with this enabled).
	spillAware []bool // Spilled[] from a prior allocation, or nil
	// mach-dependent latencies
	latency func(ir.Opcode) int64
	// extraSpillLat is added per spilled operand when spillAware is set.
	extraSpillLat int64
}

// remapUses rewrites the source registers of an instruction through f
// (destination registers are untouched).
func remapUses(in *ir.Instr, f func(ir.Reg) ir.Reg) {
	r := func(x ir.Reg) ir.Reg {
		if x == ir.NoReg {
			return x
		}
		return f(x)
	}
	switch in.Op {
	case ir.LMovI, ir.LMovF, ir.LNop, ir.LCount:
	case ir.LCall:
		for i := range in.CallArgs {
			in.CallArgs[i] = r(in.CallArgs[i])
		}
	case ir.LStore:
		in.A = r(in.A)
		in.Src = r(in.Src)
	case ir.LSelect:
		in.A = r(in.A)
		in.B = r(in.B)
		in.Src = r(in.Src)
	default:
		in.A = r(in.A)
		in.B = r(in.B)
	}
}

// renameRegisters performs local register renaming (rename-registers):
// within each block, a definition of register R that is followed by a later
// redefinition of R in the same block gets a fresh register, with the
// intervening uses patched. This removes anti- and output-dependences that
// would otherwise constrain the scheduler, at the cost of longer live-range
// pressure. Registers are visited in ascending order, so the fresh register
// numbers — and with them the compiled code's fingerprint — are the same on
// every compile.
func renameRegisters(f *ir.LFunc) {
	for _, b := range f.Blocks {
		// For each register, find def positions in this block.
		defsAt := map[ir.Reg][]int{}
		for i := range b.Instrs {
			if d := b.Instrs[i].Def(); d != ir.NoReg {
				defsAt[d] = append(defsAt[d], i)
			}
		}
		regs := make([]ir.Reg, 0, len(defsAt))
		for reg := range defsAt {
			regs = append(regs, reg)
		}
		slices.Sort(regs)
		for _, reg := range regs {
			positions := defsAt[reg]
			// Every def except the last can be renamed.
			for pi := 0; pi < len(positions)-1; pi++ {
				i, j := positions[pi], positions[pi+1]
				fresh := ir.Reg(f.NumRegs)
				f.NumRegs++
				f.FloatReg = append(f.FloatReg, f.FloatReg[reg])
				b.Instrs[i].Dst = fresh
				for k := i + 1; k <= j; k++ {
					// Instruction j itself may read the old value.
					remapUses(&b.Instrs[k], func(x ir.Reg) ir.Reg {
						if x == reg {
							return fresh
						}
						return x
					})
					if k < j {
						if d := b.Instrs[k].Def(); d == reg {
							break // should not happen (positions are ordered)
						}
					}
				}
			}
		}
	}
}

// depKind classifies why instruction j must follow instruction i.
type depEdge struct {
	from, to int
}

// scheduleBlocks runs list scheduling within every block, ordering
// instructions to hide result latencies (the execution engine stalls when a
// result is consumed before its latency elapses).
func scheduleBlocks(f *ir.LFunc, opts schedOpts) {
	for _, b := range f.Blocks {
		scheduleBlock(f, b, opts)
	}
	if opts.interblock {
		hoistLoadsInterblock(f, opts)
	}
}

func isMem(op ir.Opcode) bool { return op == ir.LLoad || op == ir.LStore }

func memConflict(a, b *ir.Instr, strict bool) bool {
	if a.Op == ir.LCall || b.Op == ir.LCall {
		return isMem(a.Op) || isMem(b.Op) || a.Op == ir.LCall && b.Op == ir.LCall
	}
	if !isMem(a.Op) || !isMem(b.Op) {
		return false
	}
	if a.Op == ir.LLoad && b.Op == ir.LLoad {
		return false
	}
	if strict {
		return a.Arr == b.Arr
	}
	return true
}

func scheduleBlock(f *ir.LFunc, b *ir.Block, opts schedOpts) {
	n := len(b.Instrs)
	if n < 3 {
		return
	}
	ins := b.Instrs

	// Build dependence edges.
	succ := make([][]int, n)
	npred := make([]int, n)
	addEdge := func(i, j int) {
		succ[i] = append(succ[i], j)
		npred[j]++
	}
	lastDef := map[ir.Reg]int{}
	lastUses := map[ir.Reg][]int{}
	var uses []ir.Reg
	var memOps []int
	var lastCall = -1
	for j := 0; j < n; j++ {
		in := &ins[j]
		uses = in.Uses(uses[:0])
		for _, u := range uses {
			if i, ok := lastDef[u]; ok {
				addEdge(i, j) // RAW
			}
		}
		if d := in.Def(); d != ir.NoReg {
			for _, i := range lastUses[d] {
				if i != j {
					addEdge(i, j) // WAR
				}
			}
			if i, ok := lastDef[d]; ok {
				addEdge(i, j) // WAW
			}
			lastDef[d] = j
			lastUses[d] = nil
		}
		for _, u := range uses {
			lastUses[u] = append(lastUses[u], j)
		}
		if isMem(in.Op) || in.Op == ir.LCall {
			for _, i := range memOps {
				if memConflict(&ins[i], in, opts.strictAlias) {
					addEdge(i, j)
				}
			}
			memOps = append(memOps, j)
		}
		if in.Op == ir.LCall {
			// Calls are barriers against other calls (and memory, above).
			if lastCall >= 0 {
				addEdge(lastCall, j)
			}
			lastCall = j
		}
	}

	// Priorities: critical-path height with latencies.
	lat := func(j int) int64 {
		l := int64(1)
		if opts.latency != nil {
			l += opts.latency(ins[j].Op)
		}
		if opts.spillAware != nil {
			uses := ins[j].Uses(nil)
			for _, u := range uses {
				if int(u) < len(opts.spillAware) && opts.spillAware[u] {
					l += opts.extraSpillLat
				}
			}
		}
		return l
	}
	height := make([]int64, n)
	for j := n - 1; j >= 0; j-- {
		h := lat(j)
		for _, s := range succ[j] {
			if height[s]+lat(j) > h {
				h = height[s] + lat(j)
			}
		}
		height[j] = h
	}

	// Cycle-aware list scheduling: among dependence-ready instructions,
	// prefer the one that can issue earliest (filling stall slots with
	// independent work, which also lets cache misses overlap); break ties
	// by critical-path height, then original order for determinism.
	ready := make([]int, 0, n)
	npredLeft := append([]int(nil), npred...)
	for j := 0; j < n; j++ {
		if npredLeft[j] == 0 {
			ready = append(ready, j)
		}
	}
	regReady := map[ir.Reg]int64{}
	var curTime int64
	var opBuf []ir.Reg
	estIssue := func(j int) int64 {
		t := curTime
		opBuf = ins[j].Uses(opBuf[:0])
		for _, u := range opBuf {
			if r := regReady[u]; r > t {
				t = r
			}
		}
		return t
	}
	order := make([]int, 0, n)
	for len(ready) > 0 {
		best := 0
		bestIssue := estIssue(ready[0])
		for k := 1; k < len(ready); k++ {
			a := ready[k]
			ia := estIssue(a)
			b := ready[best]
			if ia < bestIssue ||
				(ia == bestIssue && (height[a] > height[b] ||
					(height[a] == height[b] && a < b))) {
				best, bestIssue = k, ia
			}
		}
		j := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		order = append(order, j)
		curTime = bestIssue + 1
		if d := ins[j].Def(); d != ir.NoReg {
			l := int64(0)
			if opts.latency != nil {
				l = opts.latency(ins[j].Op)
			}
			regReady[d] = bestIssue + 1 + l
		}
		for _, s := range succ[j] {
			npredLeft[s]--
			if npredLeft[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(order) != n {
		return // cycle (impossible); keep original order
	}
	scheduled := make([]ir.Instr, n)
	for k, j := range order {
		scheduled[k] = ins[j]
	}
	b.Instrs = scheduled
}

// hoistLoadsInterblock moves loads whose operands are available at the end
// of a unique jump-predecessor into that predecessor, so their latency
// overlaps the control transfer. Only loads with no prior memory conflict
// and no operand defined earlier in their own block are moved.
func hoistLoadsInterblock(f *ir.LFunc, opts schedOpts) {
	// predecessors
	preds := map[int][]*ir.Block{}
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			preds[s] = append(preds[s], b)
		}
	}
	for _, b := range f.Blocks {
		ps := preds[b.ID]
		if len(ps) != 1 || ps[0].Term.Kind != ir.TermJump || ps[0] == b {
			continue
		}
		pred := ps[0]
		moved := true
		for moved {
			moved = false
			for i := 0; i < len(b.Instrs); i++ {
				in := b.Instrs[i]
				if in.Op != ir.LLoad {
					continue
				}
				safe := true
				for k := 0; k < i; k++ {
					prev := &b.Instrs[k]
					if prev.Def() == in.A || prev.Def() == in.Dst ||
						isMem(prev.Op) || prev.Op == ir.LCall {
						safe = false
						break
					}
					// WAR on the load's destination.
					for _, u := range prev.Uses(nil) {
						if u == in.Dst {
							safe = false
							break
						}
					}
					if !safe {
						break
					}
				}
				if !safe {
					continue
				}
				// The predecessor must not redefine the index register
				// after... it cannot: moving to the end of pred keeps all
				// pred defs before the load. Memory conflicts in pred are
				// irrelevant (the load executed after them before, too).
				pred.Instrs = append(pred.Instrs, in)
				b.Instrs = append(b.Instrs[:i], b.Instrs[i+1:]...)
				moved = true
				break
			}
		}
	}
}
