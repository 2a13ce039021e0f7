package opt

import "peak/internal/ir"

// ifConvOpts selects the if-conversion tiers.
type ifConvOpts struct {
	// basic converts conditionals whose arms are scalar assignments with
	// fault-free right-hand sides (if-conversion).
	basic bool
	// aggressive additionally speculates memory loads that provably
	// execute anyway (their exact expression appears in the condition),
	// covering the classic `if (A[i] > m) m = A[i]` reduction pattern
	// (if-conversion2).
	aggressive bool
}

// convertIfs rewrites eligible conditionals into branch-free selects:
//
//	if c { x = e1 } else { x = e2 }   =>   t = c; x = select(t, e1, e2)
//	if c { x = e1 }                   =>   t = c; x = select(t, e1, x)
//
// Both arms execute, so right-hand sides must be pure and fault-free
// (no user calls, no integer division, and loads only under the
// `aggressive` dominating-load rule). Arms containing MBR counters are
// never converted (counters carry control-dependence semantics).
func convertIfs(fn *ir.Func, prog *ir.Program, opts ifConvOpts, namer *tempNamer) {
	fn.Body = ir.RewriteStmts(fn.Body, func(out []ir.Stmt, s ir.Stmt) []ir.Stmt {
		if st, ok := s.(*ir.If); ok {
			if converted, ok := tryConvert(st, fn, prog, opts, namer); ok {
				return append(out, converted...)
			}
		}
		return append(out, s)
	})
}

// maxConvertedAssigns bounds how much work if-conversion is willing to
// execute unconditionally.
const maxConvertedAssigns = 3

func tryConvert(st *ir.If, fn *ir.Func, prog *ir.Program, opts ifConvOpts, namer *tempNamer) ([]ir.Stmt, bool) {
	if !opts.basic || st.Guard {
		return nil, false
	}
	if hasUserCall(st.Cond) {
		return nil, false
	}
	thenAssigns, ok := scalarAssigns(st.Then)
	if !ok {
		return nil, false
	}
	elseAssigns, ok := scalarAssigns(st.Else)
	if !ok {
		return nil, false
	}
	if len(thenAssigns)+len(elseAssigns) == 0 ||
		len(thenAssigns) > maxConvertedAssigns || len(elseAssigns) > maxConvertedAssigns {
		return nil, false
	}

	// Loads that are safe to speculate: those whose exact expression is
	// already evaluated unconditionally by the condition itself.
	safeLoads := map[string]bool{}
	if opts.aggressive {
		ir.WalkExpr(st.Cond, func(e ir.Expr) {
			if _, isRef := e.(*ir.ArrayRef); isRef {
				safeLoads[exprKey(e)] = true
			}
		})
	}

	// Each variable must be assigned at most once per arm, arms must not
	// read variables previously assigned in the same arm, and RHSs must be
	// speculation-safe.
	thenVals, ok := armValues(thenAssigns, safeLoads)
	if !ok {
		return nil, false
	}
	elseVals, ok := armValues(elseAssigns, safeLoads)
	if !ok {
		return nil, false
	}

	// Build: t = cond; for each assigned var v:
	//   v = select(t, thenVal_or_v, elseVal_or_v)
	// Arm RHSs are pre-evaluated into temps so that a variable assigned by
	// one select cannot corrupt the inputs of the next.
	condTemp := namer.fresh(ir.I64)
	out := []ir.Stmt{&ir.Assign{Lhs: &ir.VarRef{Name: condTemp}, Rhs: st.Cond}}

	var vars []string
	seen := map[string]bool{}
	for _, a := range thenAssigns {
		n := a.Lhs.(*ir.VarRef).Name
		if !seen[n] {
			seen[n] = true
			vars = append(vars, n)
		}
	}
	for _, a := range elseAssigns {
		n := a.Lhs.(*ir.VarRef).Name
		if !seen[n] {
			seen[n] = true
			vars = append(vars, n)
		}
	}

	pick := func(vals map[string]ir.Expr, v string) ir.Expr {
		if e, ok := vals[v]; ok {
			// Pre-evaluate into a temp.
			t := namer.fresh(exprType(e, fn, prog))
			out = append(out, &ir.Assign{Lhs: &ir.VarRef{Name: t}, Rhs: e.Clone()})
			return &ir.VarRef{Name: t}
		}
		return &ir.VarRef{Name: v}
	}
	type sel struct {
		v    string
		x, y ir.Expr
	}
	var sels []sel
	for _, v := range vars {
		sels = append(sels, sel{v: v, x: pick(thenVals, v), y: pick(elseVals, v)})
	}
	for _, sl := range sels {
		out = append(out, &ir.Assign{
			Lhs: &ir.VarRef{Name: sl.v},
			Rhs: &ir.Select{Cond: &ir.VarRef{Name: condTemp}, X: sl.x, Y: sl.y},
		})
	}
	return out, true
}

// scalarAssigns returns the arm's statements as scalar assignments, or
// ok=false when the arm contains anything else.
func scalarAssigns(arm []ir.Stmt) ([]*ir.Assign, bool) {
	out := make([]*ir.Assign, 0, len(arm))
	for _, s := range arm {
		a, ok := s.(*ir.Assign)
		if !ok {
			return nil, false
		}
		if _, ok := a.Lhs.(*ir.VarRef); !ok {
			return nil, false
		}
		out = append(out, a)
	}
	return out, true
}

// armValues validates an arm for speculation and returns var -> RHS.
// Speculation-unsafe RHSs: user calls, integer division/modulo (may fault),
// and loads not in safeLoads (may fault out of bounds).
func armValues(assigns []*ir.Assign, safeLoads map[string]bool) (map[string]ir.Expr, bool) {
	vals := map[string]ir.Expr{}
	for _, a := range assigns {
		name := a.Lhs.(*ir.VarRef).Name
		if _, dup := vals[name]; dup {
			return nil, false
		}
		// Reading a variable assigned earlier in this arm would need
		// substitution; keep it simple and bail out.
		p := analyzeExpr(a.Rhs)
		for prev := range vals {
			if p.vars[prev] {
				return nil, false
			}
		}
		if !speculationSafe(a.Rhs, safeLoads) {
			return nil, false
		}
		vals[name] = a.Rhs
	}
	return vals, true
}

func speculationSafe(e ir.Expr, safeLoads map[string]bool) bool {
	safe := true
	var check func(x ir.Expr)
	check = func(x ir.Expr) {
		if !safe {
			return
		}
		switch ex := x.(type) {
		case *ir.ArrayRef:
			if !safeLoads[exprKey(ex)] {
				safe = false
				return
			}
			check(ex.Index)
		case *ir.Binary:
			if ex.Typ == ir.I64 && (ex.Op == ir.OpDiv || ex.Op == ir.OpMod) {
				if _, _, isConst := constValue(ex.Y); !isConst || isZero(ex.Y) {
					safe = false
					return
				}
			}
			check(ex.X)
			check(ex.Y)
		case *ir.Unary:
			check(ex.X)
		case *ir.CallExpr:
			if _, ok := ir.IsIntrinsic(ex.Fn); !ok {
				safe = false
				return
			}
			for _, a := range ex.Args {
				check(a)
			}
		case *ir.Select:
			check(ex.Cond)
			check(ex.X)
			check(ex.Y)
		}
	}
	check(e)
	return safe
}
