package analysis

import "peak/internal/ir"

// Instrument returns a copy of fn with an MBR counter inserted at the
// function entry and at the head of every loop body and conditional arm —
// the "relevant blocks" of paper §2.3. Counter 0 is the entry counter,
// which executes exactly once per invocation and therefore serves as the
// paper's constant component (C_n = 1).
//
// Counters carry no data or control dependences; optimization passes
// preserve them (unrolling duplicates them, which keeps totals exact), and
// the execution engine charges no cycles for them.
func Instrument(fn *ir.Func) *ir.Func {
	nf := fn.Clone()
	next := 0
	alloc := func() *ir.Counter {
		c := &ir.Counter{ID: next}
		next++
		return c
	}
	// Hand-written rather than an ir primitive: IDs are allocated pre-order,
	// each arm's counter before that arm's nested ones.
	var instr func(list []ir.Stmt) []ir.Stmt
	instr = func(list []ir.Stmt) []ir.Stmt {
		out := make([]ir.Stmt, 0, len(list))
		for _, s := range list {
			switch st := s.(type) {
			case *ir.If:
				st.Then = append([]ir.Stmt{alloc()}, instr(st.Then)...)
				if len(st.Else) > 0 {
					st.Else = append([]ir.Stmt{alloc()}, instr(st.Else)...)
				}
			case *ir.For:
				st.Body = append([]ir.Stmt{alloc()}, instr(st.Body)...)
			case *ir.While:
				st.Body = append([]ir.Stmt{alloc()}, instr(st.Body)...)
			}
			out = append(out, s)
		}
		return out
	}
	entry := alloc() // ID 0
	nf.Body = append([]ir.Stmt{entry}, instr(nf.Body)...)
	nf.NumCounters = next
	return nf
}

// StripCounters returns a copy of fn with counters removed, except those
// whose IDs appear in keep (nil keeps none). Counter IDs are preserved, so
// execution still reports kept counters under their original IDs. The final
// tuned code uses StripCounters(fn, nil) — "absent of any instrumentation
// code" (paper §4.2).
func StripCounters(fn *ir.Func, keep map[int]bool) *ir.Func {
	nf := fn.Clone()
	nf.Body = ir.RewriteStmts(nf.Body, func(out []ir.Stmt, s ir.Stmt) []ir.Stmt {
		if c, ok := s.(*ir.Counter); ok && !keep[c.ID] {
			return out
		}
		return append(out, s)
	})
	if len(keep) == 0 {
		nf.NumCounters = 0
	}
	return nf
}
