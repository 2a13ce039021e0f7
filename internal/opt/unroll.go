package opt

import "peak/internal/ir"

// unrollFactor is the unroll width (GCC 3.3 used small fixed factors).
const unrollFactor = 4

// unrollLoops unrolls innermost For loops by unrollFactor:
//
//	for i = a; i < b; i += s { B(i) }
//	  =>
//	i = a
//	while i + (U-1)*s < b { B(i); B(i+s); ...; B(i+(U-1)*s); i += U*s }
//	while i < b           { B(i); i += s }
//
// Legality: the body must not contain Break, Return, nested loops, or
// assignments to the loop variable, and the bound must be invariant (it is
// re-evaluated once per unrolled group instead of once per iteration).
// Counter statements are duplicated with the body, which keeps their totals
// exact (one increment per original iteration).
func unrollLoops(fn *ir.Func, prog *ir.Program, namer *tempNamer) {
	fn.Body = ir.RewriteStmts(fn.Body, func(out []ir.Stmt, s ir.Stmt) []ir.Stmt {
		if st, ok := s.(*ir.For); ok {
			return append(out, unrollFor(st, fn, prog, namer)...)
		}
		return append(out, s)
	})
}

func unrollFor(st *ir.For, fn *ir.Func, prog *ir.Program, namer *tempNamer) []ir.Stmt {
	if !unrollable(st, prog) {
		return []ir.Stmt{st}
	}

	ensureLocal(fn, st.Var, ir.I64)

	v := func() ir.Expr { return &ir.VarRef{Name: st.Var} }
	ci := func(n int64) ir.Expr { return &ir.ConstInt{V: n} }
	add := func(x, y ir.Expr) ir.Expr {
		return foldExpr(&ir.Binary{Op: ir.OpAdd, Typ: ir.I64, X: x, Y: y})
	}

	// i = From
	init := &ir.Assign{Lhs: v(), Rhs: st.From.Clone()}

	// Main loop: while i + (U-1)*step < To
	mainCond := &ir.Binary{Op: ir.OpLt, Typ: ir.I64,
		X: add(v(), ci(int64(unrollFactor-1)*st.Step)), Y: st.To.Clone()}
	var mainBody []ir.Stmt
	for k := 0; k < unrollFactor; k++ {
		iterVar := st.Var
		if k > 0 {
			iterVar = namer.fresh(ir.I64)
			mainBody = append(mainBody, &ir.Assign{
				Lhs: &ir.VarRef{Name: iterVar},
				Rhs: add(v(), ci(int64(k)*st.Step)),
			})
		}
		copyBody := ir.CloneStmts(st.Body)
		if k > 0 {
			renameVarInStmts(copyBody, st.Var, iterVar)
		}
		mainBody = append(mainBody, copyBody...)
	}
	mainBody = append(mainBody, &ir.Assign{Lhs: v(), Rhs: add(v(), ci(int64(unrollFactor)*st.Step))})
	main := &ir.While{Cond: mainCond, Body: mainBody}

	// Remainder loop: while i < To
	remCond := &ir.Binary{Op: ir.OpLt, Typ: ir.I64, X: v(), Y: st.To.Clone()}
	remBody := append(ir.CloneStmts(st.Body), &ir.Assign{Lhs: v(), Rhs: add(v(), ci(st.Step))})
	rem := &ir.While{Cond: remCond, Body: remBody}

	return []ir.Stmt{init, main, rem}
}

// unrollable checks the legality conditions for unrollFor.
func unrollable(st *ir.For, prog *ir.Program) bool {
	// Bound and start must be pure; the bound must also be invariant,
	// because the unrolled loop tests it once per group of iterations.
	if hasUserCall(st.From) || hasUserCall(st.To) {
		return false
	}
	info := summarizeLoop(st.Body, st.Var, prog)
	toProps := analyzeExpr(st.To)
	for vname := range toProps.vars {
		if vname != st.Var && info.killed[vname] {
			return false
		}
	}
	if toProps.hasLoad {
		for a := range toProps.loads {
			if info.stored[a] {
				return false
			}
		}
		if info.hasCall {
			return false
		}
	}
	bodyAssigned := map[string]bool{}
	assignedVars(st.Body, bodyAssigned)
	if bodyAssigned[st.Var] {
		return false
	}
	// No Break/Return/nested loops in the body.
	ok := true
	ir.VisitStmts(st.Body, func(s ir.Stmt) {
		switch s.(type) {
		case *ir.Break, *ir.Return, *ir.For, *ir.While:
			ok = false
		}
	})
	// Size limit: unrolling huge bodies only thrashes the icache.
	if bodySize(st.Body) > 60 {
		return false
	}
	return ok
}

// bodySize counts the statements of list and its nested lists, plus the
// expression nodes of assignment right-hand sides and If conditions.
func bodySize(list []ir.Stmt) int {
	n := 0
	ir.VisitStmts(list, func(s ir.Stmt) {
		n++
		switch st := s.(type) {
		case *ir.Assign:
			n += exprSize(st.Rhs)
		case *ir.If:
			n += exprSize(st.Cond)
		}
	})
	return n
}

func ensureLocal(fn *ir.Func, name string, typ ir.Type) {
	if fn.IsLocal(name) || fn.IsParam(name) {
		return
	}
	fn.Locals = append(fn.Locals, ir.Local{Name: name, Typ: typ})
}

// renameVarInStmts replaces every reference to (and assignment of) scalar
// `from` with `to` in the statement list.
func renameVarInStmts(list []ir.Stmt, from, to string) {
	rewriteStmtExprs(list, func(e ir.Expr) ir.Expr {
		if vr, ok := e.(*ir.VarRef); ok && vr.Name == from {
			return &ir.VarRef{Name: to}
		}
		return e
	})
	ir.VisitStmts(list, func(s ir.Stmt) {
		if a, ok := s.(*ir.Assign); ok {
			if lhs, ok := a.Lhs.(*ir.VarRef); ok && lhs.Name == from {
				a.Lhs = &ir.VarRef{Name: to}
			}
		}
	})
}
