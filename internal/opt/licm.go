package opt

import "peak/internal/ir"

// licmOpts configures loop-invariant code motion (loop-optimize) and its
// memory extensions.
type licmOpts struct {
	// loads permits hoisting loop-invariant memory loads (gcse-lm).
	loads bool
	// stores enables store motion / scalar promotion of loop-carried array
	// accumulators (gcse-sm, gated on expensive-optimizations by Compile).
	stores bool
	// strictAlias lets memory legality reason per array; without it any
	// store in the loop blocks all memory motion.
	strictAlias bool
}

// hoistInvariants walks all loops (innermost first) and hoists invariant
// computation into a guarded preheader:
//
//	for i = a; i < b; i++ { use(inv) }
//	  =>
//	if a < b { t = inv; for i = a; i < b; i++ { use(t) } }
//
// The guard keeps hoisted loads and divisions from executing when the loop
// would not run (so no new faults are introduced).
func hoistInvariants(fn *ir.Func, prog *ir.Program, opts licmOpts, namer *tempNamer) {
	fn.Body = ir.RewriteStmts(fn.Body, func(out []ir.Stmt, s ir.Stmt) []ir.Stmt {
		switch s.(type) {
		case *ir.For, *ir.While:
			return append(out, hoistLoop(s, fn, prog, opts, namer))
		}
		return append(out, s)
	})
}

// loopInfo captures legality facts about one loop.
type loopInfo struct {
	killed    map[string]bool // scalars assigned in the body (and loop var)
	stored    map[string]bool // arrays stored in the body (through calls too)
	hasCall   bool            // body contains user calls
	hasReturn bool
}

func summarizeLoop(body []ir.Stmt, loopVar string, prog *ir.Program) *loopInfo {
	info := &loopInfo{killed: map[string]bool{}, stored: map[string]bool{}}
	assignedVars(body, info.killed)
	if loopVar != "" {
		info.killed[loopVar] = true
	}
	storedArrays(body, prog, info.stored)
	info.hasCall = regionHasUserCall(body)
	ir.VisitStmts(body, func(s ir.Stmt) {
		if _, ok := s.(*ir.Return); ok {
			info.hasReturn = true
		}
	})
	return info
}

// invariant reports whether e is loop-invariant and legal to hoist under
// opts: pure, reading only scalars the body does not assign, and (for
// loads) only arrays the loop provably does not store to.
func invariant(e ir.Expr, info *loopInfo, opts licmOpts) bool {
	p := analyzeExpr(e)
	if p.hasUserCall {
		return false
	}
	if info.hasCall && p.hasLoad {
		// Calls may store to arrays we cannot see from here.
		return false
	}
	for v := range p.vars {
		if info.killed[v] {
			return false
		}
	}
	if p.hasLoad {
		if !opts.loads {
			return false
		}
		if opts.strictAlias {
			for a := range p.loads {
				if info.stored[a] {
					return false
				}
			}
		} else if len(info.stored) > 0 {
			return false
		}
	}
	return true
}

// hoistLoop hoists invariant subtrees out of one loop (For or While) and
// returns the replacement statement (the guarded preheader, or the loop
// unchanged).
func hoistLoop(loop ir.Stmt, fn *ir.Func, prog *ir.Program, opts licmOpts, namer *tempNamer) ir.Stmt {
	var body []ir.Stmt
	var loopVar string
	var guardCond ir.Expr
	switch l := loop.(type) {
	case *ir.For:
		body = l.Body
		loopVar = l.Var
		guardCond = &ir.Binary{Op: ir.OpLt, Typ: ir.I64, X: l.From.Clone(), Y: l.To.Clone()}
		if hasUserCall(l.From) || hasUserCall(l.To) {
			return loop
		}
	case *ir.While:
		body = l.Body
		guardCond = l.Cond.Clone()
		if hasUserCall(l.Cond) {
			return loop
		}
	default:
		return loop
	}

	info := summarizeLoop(body, loopVar, prog)

	var hoisted []ir.Stmt
	temps := map[string]string{} // exprKey -> temp name

	// Every expression evaluated inside the body, nested control conditions
	// included, is a per-iteration evaluation of this loop.
	ir.VisitExprs(body, func(e *ir.Expr) {
		*e = hoistRewrite(*e, info, opts, fn, prog, namer, temps, &hoisted)
	})

	// Store motion (scalar promotion of loop-carried array cells).
	var postStores []ir.Stmt
	if opts.stores && !info.hasCall && !info.hasReturn {
		hoisted, postStores = promoteStores(body, info, opts, fn, prog, namer, hoisted)
	}

	if len(hoisted) == 0 && len(postStores) == 0 {
		return loop
	}
	then := make([]ir.Stmt, 0, len(hoisted)+1+len(postStores))
	then = append(then, hoisted...)
	then = append(then, loop)
	then = append(then, postStores...)
	return &ir.If{Cond: guardCond, Then: then}
}

// hoistRewrite replaces maximal invariant subtrees (of size ≥ 2) in e with
// preheader temps, top-down.
func hoistRewrite(e ir.Expr, info *loopInfo, opts licmOpts, fn *ir.Func, prog *ir.Program,
	namer *tempNamer, temps map[string]string, hoisted *[]ir.Stmt) ir.Expr {
	if exprSize(e) >= 2 && invariant(e, info, opts) {
		key := exprKey(e)
		if t, ok := temps[key]; ok {
			return &ir.VarRef{Name: t}
		}
		t := namer.fresh(exprType(e, fn, prog))
		temps[key] = t
		*hoisted = append(*hoisted, &ir.Assign{Lhs: &ir.VarRef{Name: t}, Rhs: e.Clone()})
		return &ir.VarRef{Name: t}
	}
	switch ex := e.(type) {
	case *ir.ArrayRef:
		ex.Index = hoistRewrite(ex.Index, info, opts, fn, prog, namer, temps, hoisted)
	case *ir.Unary:
		ex.X = hoistRewrite(ex.X, info, opts, fn, prog, namer, temps, hoisted)
	case *ir.Binary:
		ex.X = hoistRewrite(ex.X, info, opts, fn, prog, namer, temps, hoisted)
		ex.Y = hoistRewrite(ex.Y, info, opts, fn, prog, namer, temps, hoisted)
	case *ir.CallExpr:
		for i, a := range ex.Args {
			ex.Args[i] = hoistRewrite(a, info, opts, fn, prog, namer, temps, hoisted)
		}
	case *ir.Select:
		ex.Cond = hoistRewrite(ex.Cond, info, opts, fn, prog, namer, temps, hoisted)
		ex.X = hoistRewrite(ex.X, info, opts, fn, prog, namer, temps, hoisted)
		ex.Y = hoistRewrite(ex.Y, info, opts, fn, prog, namer, temps, hoisted)
	}
	return e
}

// promoteStores finds arrays referenced in the loop exclusively through one
// invariant index expression and promotes that cell to a scalar:
//
//	for ... { A[k] = A[k] + x }
//	  =>
//	t = A[k]; for ... { t = t + x }; A[k] = t
//
// Legal when the index is invariant, every reference to the array inside the
// loop uses the identical index expression, and either strict-aliasing holds
// or the loop touches no other memory.
func promoteStores(body []ir.Stmt, info *loopInfo, opts licmOpts, fn *ir.Func, prog *ir.Program,
	namer *tempNamer, hoisted []ir.Stmt) (pre []ir.Stmt, post []ir.Stmt) {
	pre = hoisted

	// Collect per-array reference keys.
	refs := map[string]map[string]*ir.ArrayRef{} // array -> index key -> sample ref
	collect := func(e ir.Expr) {
		ir.WalkExpr(e, func(x ir.Expr) {
			if ar, ok := x.(*ir.ArrayRef); ok {
				if refs[ar.Name] == nil {
					refs[ar.Name] = map[string]*ir.ArrayRef{}
				}
				refs[ar.Name][exprKey(ar.Index)] = ar
			}
		})
	}
	ir.VisitStmts(body, func(s ir.Stmt) {
		if a, ok := s.(*ir.Assign); ok {
			// The stored-to ref counts too. refs keeps the last ref per
			// index key, so it comes after the Rhs and before its index.
			collect(a.Rhs)
			collect(a.Lhs)
			return
		}
		ir.StmtExprs(s, func(e *ir.Expr) { collect(*e) })
	})

	for arr, byKey := range refs {
		if !info.stored[arr] {
			continue // no store: plain load hoisting already handles it
		}
		if len(byKey) != 1 {
			continue // multiple distinct index expressions
		}
		if !opts.strictAlias && len(refs) > 1 {
			continue // cannot disambiguate against other arrays
		}
		var sample *ir.ArrayRef
		for _, r := range byKey {
			sample = r
		}
		if !invariant(sample.Index, info, licmOpts{loads: opts.loads, strictAlias: opts.strictAlias}) {
			continue
		}
		// Promote.
		t := namer.fresh(arrayElemType(arr, prog))
		idx := sample.Index.Clone()
		pre = append(pre, &ir.Assign{
			Lhs: &ir.VarRef{Name: t},
			Rhs: &ir.ArrayRef{Name: arr, Index: idx.Clone()},
		})
		replaceArrayCell(body, arr, t)
		post = append(post, &ir.Assign{
			Lhs: &ir.ArrayRef{Name: arr, Index: idx},
			Rhs: &ir.VarRef{Name: t},
		})
	}
	return pre, post
}

func arrayElemType(name string, prog *ir.Program) ir.Type {
	if prog != nil {
		if a, ok := prog.Array(name); ok {
			return a.Typ
		}
	}
	return ir.F64
}

// replaceArrayCell rewrites every reference to array arr (loads and stores)
// in the body with the scalar temp t. All references are known to use the
// same index.
func replaceArrayCell(list []ir.Stmt, arr, t string) {
	rewriteStmtExprs(list, func(e ir.Expr) ir.Expr {
		if ar, ok := e.(*ir.ArrayRef); ok && ar.Name == arr {
			return &ir.VarRef{Name: t}
		}
		return e
	})
	ir.VisitStmts(list, func(s ir.Stmt) {
		if a, ok := s.(*ir.Assign); ok {
			if ar, ok := a.Lhs.(*ir.ArrayRef); ok && ar.Name == arr {
				a.Lhs = &ir.VarRef{Name: t}
			}
		}
	})
}
