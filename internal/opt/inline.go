package opt

import "peak/internal/ir"

// maxInlineSize bounds the body size (statement + expression nodes) of
// inlinable callees.
const maxInlineSize = 48

// inlineCalls replaces calls to small, straight-line program functions with
// their bodies (inline-functions). Only calls in "statement position" are
// inlined — the full right-hand side of an assignment, a return value, or a
// call statement — so expression evaluation order is preserved. Eligible
// callees consist of scalar assignments followed by a single Return, contain
// no loops, conditionals, stores, or further user calls, and are not
// recursive.
func inlineCalls(fn *ir.Func, prog *ir.Program, namer *tempNamer) {
	fn.Body = ir.RewriteStmts(fn.Body, func(out []ir.Stmt, s ir.Stmt) []ir.Stmt {
		switch st := s.(type) {
		case *ir.Assign:
			if call, ok := st.Rhs.(*ir.CallExpr); ok {
				if body, result, ok := expandCall(call, fn, prog, namer); ok {
					out = append(out, body...)
					st.Rhs = result
				}
			}
		case *ir.Return:
			if call, ok := st.Value.(*ir.CallExpr); ok && st.Value != nil {
				if body, result, ok := expandCall(call, fn, prog, namer); ok {
					out = append(out, body...)
					st.Value = result
				}
			}
		case *ir.CallStmt:
			call := &ir.CallExpr{Fn: st.Fn, Args: st.Args}
			if body, _, ok := expandCall(call, fn, prog, namer); ok {
				return append(out, body...)
			}
		}
		return append(out, s)
	})
}

// expandCall inlines one call. It returns the statements computing the body
// and the expression holding the result value.
func expandCall(call *ir.CallExpr, fn *ir.Func, prog *ir.Program, namer *tempNamer) ([]ir.Stmt, ir.Expr, bool) {
	if _, intrinsic := ir.IsIntrinsic(call.Fn); intrinsic {
		return nil, nil, false
	}
	callee, ok := prog.Funcs[call.Fn]
	if !ok || !inlinable(callee) {
		return nil, nil, false
	}
	// Count scalar params.
	var scalarParams []ir.Param
	for _, p := range callee.Params {
		if p.IsArray {
			return nil, nil, false // array params would need name remapping
		}
		scalarParams = append(scalarParams, p)
	}
	if len(scalarParams) != len(call.Args) {
		return nil, nil, false
	}

	// Bind arguments to fresh temps (evaluated in order at the call site).
	rename := map[string]string{}
	var out []ir.Stmt
	for i, p := range scalarParams {
		t := namer.fresh(p.Typ)
		rename[p.Name] = t
		out = append(out, &ir.Assign{Lhs: &ir.VarRef{Name: t}, Rhs: call.Args[i].Clone()})
	}
	for _, l := range callee.Locals {
		t := namer.fresh(l.Typ)
		rename[l.Name] = t
		// Locals start at zero in the callee.
		out = append(out, &ir.Assign{Lhs: &ir.VarRef{Name: t}, Rhs: &ir.ConstInt{V: 0}})
	}

	var result ir.Expr = &ir.ConstInt{V: 0}
	for _, s := range callee.Body {
		switch st := s.(type) {
		case *ir.Assign:
			cp := st.Clone().(*ir.Assign)
			renameInAssign(cp, rename)
			out = append(out, cp)
		case *ir.Return:
			if st.Value != nil {
				result = renameInExpr(st.Value.Clone(), rename)
			}
			return out, result, true
		}
	}
	return out, result, true
}

// inlinable reports whether callee is straight-line scalar code ending in a
// single optional Return.
func inlinable(callee *ir.Func) bool {
	size := 0
	for i, s := range callee.Body {
		switch st := s.(type) {
		case *ir.Assign:
			if _, ok := st.Lhs.(*ir.VarRef); !ok {
				return false // stores would need alias bookkeeping
			}
			if hasUserCall(st.Rhs) {
				return false
			}
			size += 1 + exprSize(st.Rhs)
		case *ir.Return:
			if i != len(callee.Body)-1 {
				return false
			}
			if st.Value != nil {
				if hasUserCall(st.Value) {
					return false
				}
				size += exprSize(st.Value)
			}
		default:
			return false
		}
	}
	return size <= maxInlineSize
}

func renameInExpr(e ir.Expr, rename map[string]string) ir.Expr {
	return ir.RewriteExpr(e, func(x ir.Expr) ir.Expr {
		if vr, ok := x.(*ir.VarRef); ok {
			if t, ok := rename[vr.Name]; ok {
				return &ir.VarRef{Name: t}
			}
		}
		return x
	})
}

func renameInAssign(a *ir.Assign, rename map[string]string) {
	a.Rhs = renameInExpr(a.Rhs, rename)
	switch lhs := a.Lhs.(type) {
	case *ir.VarRef:
		if t, ok := rename[lhs.Name]; ok {
			a.Lhs = &ir.VarRef{Name: t}
		}
	case *ir.ArrayRef:
		lhs.Index = renameInExpr(lhs.Index, rename)
	}
}
