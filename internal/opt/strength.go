package opt

import "peak/internal/ir"

// reduceStrength rewrites multiplications by the loop induction variable
// into additive recurrences (strength-reduce):
//
//	for i = a; i < b; i += s { ... i*c ... }
//	  =>
//	t = a*c
//	for i = a; i < b; i += s { ... t ... ; t = t + c*s }
//
// c must be a constant, or — when expensive-optimizations is on — any
// loop-invariant scalar. Only For loops whose variable is not reassigned in
// the body are rewritten.
func reduceStrength(fn *ir.Func, prog *ir.Program, expensive bool, namer *tempNamer) {
	fn.Body = ir.RewriteStmts(fn.Body, func(out []ir.Stmt, s ir.Stmt) []ir.Stmt {
		if st, ok := s.(*ir.For); ok {
			return append(out, reduceStrengthFor(st, fn, prog, expensive, namer)...)
		}
		return append(out, s)
	})
}

func reduceStrengthFor(st *ir.For, fn *ir.Func, prog *ir.Program, expensive bool, namer *tempNamer) []ir.Stmt {
	info := summarizeLoop(st.Body, st.Var, prog)
	// The loop variable must only be advanced by the loop itself, and
	// From must be pure (it is evaluated a second time in the preheader).
	bodyAssigned := map[string]bool{}
	assignedVars(st.Body, bodyAssigned)
	if bodyAssigned[st.Var] || hasUserCall(st.From) {
		return []ir.Stmt{st}
	}

	type reduction struct {
		temp   string
		factor ir.Expr // c (constant or invariant var)
	}
	found := map[string]*reduction{} // exprKey(i*c) -> reduction
	var order []*reduction           // creation order (deterministic)

	acceptFactor := func(e ir.Expr) bool {
		switch f := e.(type) {
		case *ir.ConstInt:
			return true
		case *ir.VarRef:
			return expensive && !info.killed[f.Name]
		}
		return false
	}

	rw := func(e ir.Expr) ir.Expr {
		bin, ok := e.(*ir.Binary)
		if !ok || bin.Op != ir.OpMul || bin.Typ != ir.I64 {
			return e
		}
		var factor ir.Expr
		if v, ok := bin.X.(*ir.VarRef); ok && v.Name == st.Var && acceptFactor(bin.Y) {
			factor = bin.Y
		} else if v, ok := bin.Y.(*ir.VarRef); ok && v.Name == st.Var && acceptFactor(bin.X) {
			factor = bin.X
		}
		if factor == nil {
			return e
		}
		key := exprKey(e)
		red, ok := found[key]
		if !ok {
			red = &reduction{temp: namer.fresh(ir.I64), factor: factor.Clone()}
			found[key] = red
			order = append(order, red)
		}
		return &ir.VarRef{Name: red.temp}
	}
	rewriteStmtExprs(st.Body, rw)
	if len(found) == 0 {
		return []ir.Stmt{st}
	}

	// Preheader: t = From * c. Body tail: t = t + c*step.
	pre := make([]ir.Stmt, 0, len(found))
	tail := make([]ir.Stmt, 0, len(found))
	for _, red := range order {
		pre = append(pre, &ir.Assign{
			Lhs: &ir.VarRef{Name: red.temp},
			Rhs: foldExpr(&ir.Binary{Op: ir.OpMul, Typ: ir.I64, X: st.From.Clone(), Y: red.factor.Clone()}),
		})
		incr := foldExpr(&ir.Binary{Op: ir.OpMul, Typ: ir.I64,
			X: red.factor.Clone(), Y: &ir.ConstInt{V: st.Step}})
		tail = append(tail, &ir.Assign{
			Lhs: &ir.VarRef{Name: red.temp},
			Rhs: &ir.Binary{Op: ir.OpAdd, Typ: ir.I64, X: &ir.VarRef{Name: red.temp}, Y: incr},
		})
	}
	st.Body = append(st.Body, tail...)
	return append(pre, st)
}
