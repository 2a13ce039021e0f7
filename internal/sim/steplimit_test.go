package sim_test

import (
	"fmt"
	"testing"

	"peak/internal/ir"
	"peak/internal/sim"
)

// stepLoop builds a five-iteration loop whose body block runs body between
// counter bumps, so a limit can fall before, between and after them:
//
//	b0: r0 = 0; r1 = 5; r2 = 1; r6 = 0.5
//	b1: count 0; body...; r0 = r0 + r2; count 1; r3 = r0 < r1; count 2
//	    branch r3 ? b1 : b2
//	b2: return r7
func stepLoop(name string, body ...ir.Instr) *ir.LFunc {
	no := ir.NoReg
	mov := func(dst ir.Reg, imm int64) ir.Instr {
		return ir.Instr{Op: ir.LMovI, Dst: dst, A: no, B: no, Src: no, Imm: imm}
	}
	count := func(id int64) ir.Instr {
		return ir.Instr{Op: ir.LCount, Dst: no, A: no, B: no, Src: no, Imm: id}
	}
	loop := []ir.Instr{count(0)}
	loop = append(loop, body...)
	loop = append(loop,
		ir.Instr{Op: ir.LAdd, Dst: 0, A: 0, B: 2, Src: no},
		count(1),
		ir.Instr{Op: ir.LCmpLt, Dst: 3, A: 0, B: 1, Src: no},
		count(2),
	)
	return &ir.LFunc{
		Name: name, NumRegs: 8, NumCounters: 3,
		FloatReg: make([]bool, 8),
		Blocks: []*ir.Block{
			{ID: 0, Origin: 0, Instrs: []ir.Instr{mov(0, 0), mov(1, 5), mov(2, 1),
				{Op: ir.LMovF, Dst: 6, A: no, B: no, Src: no, FImm: 0.5}},
				Term: ir.Terminator{Kind: ir.TermJump, Then: 1}},
			{ID: 1, Origin: 1, Instrs: loop,
				Term: ir.Terminator{Kind: ir.TermBranch, Cond: 3, Then: 1, Else: 2}},
			{ID: 2, Origin: 2, Term: ir.Terminator{Kind: ir.TermReturn, Val: 7}},
		},
	}
}

// TestStepLimitSweep runs three small programs on both engines under every
// step limit from 1 to one past the program's total, requiring the same
// error, Instrs, Cycles, Counters and return value at each: counter bumps
// mid-block, a user call inside a loop body (the callee's steps land
// mid-block, so the block's stop index must be rebased after the call),
// and an intrinsic call.
func TestStepLimitSweep(t *testing.T) {
	env := newRandomEnv(t)
	no := ir.NoReg
	progs := []*ir.LFunc{
		stepLoop("counters",
			ir.Instr{Op: ir.LMul, Dst: 4, A: 0, B: 0, Src: no},
			ir.Instr{Op: ir.LCount, Dst: no, A: no, B: no, Src: no, Imm: 1},
			ir.Instr{Op: ir.LAdd, Dst: 7, A: 7, B: 4, Src: no}),
		stepLoop("usercall",
			ir.Instr{Op: ir.LMov, Dst: 4, A: 0, B: no, Src: no},
			ir.Instr{Op: ir.LCall, Dst: 5, A: no, B: no, Src: no, Fn: "leaf", CallArgs: []ir.Reg{4, 6}},
			ir.Instr{Op: ir.LCount, Dst: no, A: no, B: no, Src: no, Imm: 2},
			ir.Instr{Op: ir.LFAdd, Dst: 7, A: 7, B: 5, Src: no}),
		stepLoop("intrinsic",
			ir.Instr{Op: ir.LCall, Dst: 5, A: no, B: no, Src: no, Fn: "sqrt", CallArgs: []ir.Reg{0}},
			ir.Instr{Op: ir.LFAdd, Dst: 7, A: 7, B: 5, Src: no}),
	}
	for mi, m := range env.machines {
		for _, lf := range progs {
			v := &sim.Version{
				LF:         lf,
				Mods:       sim.DefaultCostMods(),
				CodeSize:   lf.InstrCount(),
				NumOrigins: len(lf.Blocks),
				Callees:    map[string]*sim.Version{"leaf": env.leaves[mi]},
				Label:      lf.Name,
			}
			run := func(engine sim.Engine, limit int64) observation {
				mem := sim.NewMemory(env.prog)
				r := sim.NewRunner(m, mem, 3)
				r.Engine, r.MaxSteps = engine, limit
				return observe(r, mem, v, nil)
			}
			full := run(sim.EngineRef, 0)
			if full.ErrText != "" {
				t.Fatalf("%s/%s: unlimited run failed: %s", m.Name, lf.Name, full.ErrText)
			}
			total := full.Instrs
			for limit := int64(1); limit <= total+1; limit++ {
				label := fmt.Sprintf("%s/%s MaxSteps=%d of %d", m.Name, lf.Name, limit, total)
				if !compareObs(t, label, run(sim.EngineFused, limit), run(sim.EngineRef, limit), lf.String) {
					return
				}
			}
		}
	}
}
