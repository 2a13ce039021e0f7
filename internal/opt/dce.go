package opt

import (
	"peak/internal/ir"
	"peak/internal/lower"
)

// eliminateDeadCode removes assignments to local scalars that are never
// read anywhere in the function (write-only temporaries left behind by
// other passes), iterating to a fixpoint. It is a baseline cleanup that
// always runs. Assignments with user calls in the right-hand side are kept
// (the call may have effects); array stores and global-scalar writes are
// always kept.
func eliminateDeadCode(fn *ir.Func, prog *ir.Program) {
	for {
		reads := map[string]int{}
		ir.VisitExprs(fn.Body, func(e *ir.Expr) {
			ir.WalkExpr(*e, func(x ir.Expr) {
				if vr, ok := x.(*ir.VarRef); ok {
					reads[vr.Name]++
				}
			})
		})
		removed := false
		fn.Body = ir.RewriteStmts(fn.Body, func(out []ir.Stmt, s ir.Stmt) []ir.Stmt {
			if st, ok := s.(*ir.Assign); ok {
				if vr, ok := st.Lhs.(*ir.VarRef); ok {
					isLocalScalar := fn.IsLocal(vr.Name) ||
						(fn.IsParam(vr.Name)) // params are by-value: writes are local too
					notGlobal := lower.GlobalIndex(prog, vr.Name) < 0 || fn.IsLocal(vr.Name) || fn.IsParam(vr.Name)
					if isLocalScalar && notGlobal && reads[vr.Name] == 0 &&
						!hasUserCall(st.Rhs) {
						removed = true
						return out
					}
				}
			}
			return append(out, s)
		})
		if !removed {
			return
		}
	}
}

// removeGuards splices away compiler-inserted safety checks marked with
// If.Guard (delete-null-pointer-checks). Workloads only mark checks whose
// condition is dynamically always true, mirroring GCC's language-level
// guarantee that the removed null checks cannot fire.
func removeGuards(fn *ir.Func) {
	fn.Body = ir.RewriteStmts(fn.Body, func(out []ir.Stmt, s ir.Stmt) []ir.Stmt {
		if st, ok := s.(*ir.If); ok && st.Guard && len(st.Else) == 0 {
			return append(out, st.Then...)
		}
		return append(out, s)
	})
}
