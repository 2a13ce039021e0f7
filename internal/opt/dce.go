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
		countReads(fn.Body, reads)
		removed := false
		fn.Body = removeDead(fn.Body, fn, prog, reads, &removed)
		if !removed {
			return
		}
	}
}

func countReads(list []ir.Stmt, reads map[string]int) {
	count := func(e ir.Expr) {
		walkExpr(e, func(x ir.Expr) {
			if vr, ok := x.(*ir.VarRef); ok {
				reads[vr.Name]++
			}
		})
	}
	for _, s := range list {
		switch st := s.(type) {
		case *ir.Assign:
			count(st.Rhs)
			if ar, ok := st.Lhs.(*ir.ArrayRef); ok {
				count(ar.Index)
			}
		case *ir.If:
			count(st.Cond)
			countReads(st.Then, reads)
			countReads(st.Else, reads)
		case *ir.For:
			count(st.From)
			count(st.To)
			countReads(st.Body, reads)
		case *ir.While:
			count(st.Cond)
			countReads(st.Body, reads)
		case *ir.Return:
			if st.Value != nil {
				count(st.Value)
			}
		case *ir.CallStmt:
			for _, a := range st.Args {
				count(a)
			}
		}
	}
}

func removeDead(list []ir.Stmt, fn *ir.Func, prog *ir.Program, reads map[string]int, removed *bool) []ir.Stmt {
	out := make([]ir.Stmt, 0, len(list))
	for _, s := range list {
		switch st := s.(type) {
		case *ir.Assign:
			if vr, ok := st.Lhs.(*ir.VarRef); ok {
				isLocalScalar := fn.IsLocal(vr.Name) ||
					(fn.IsParam(vr.Name)) // params are by-value: writes are local too
				notGlobal := lower.GlobalIndex(prog, vr.Name) < 0 || fn.IsLocal(vr.Name) || fn.IsParam(vr.Name)
				if isLocalScalar && notGlobal && reads[vr.Name] == 0 &&
					!hasUserCall(st.Rhs) {
					*removed = true
					continue
				}
			}
			out = append(out, st)
		case *ir.If:
			st.Then = removeDead(st.Then, fn, prog, reads, removed)
			st.Else = removeDead(st.Else, fn, prog, reads, removed)
			out = append(out, st)
		case *ir.For:
			st.Body = removeDead(st.Body, fn, prog, reads, removed)
			out = append(out, st)
		case *ir.While:
			st.Body = removeDead(st.Body, fn, prog, reads, removed)
			out = append(out, st)
		default:
			out = append(out, s)
		}
	}
	return out
}

// removeGuards splices away compiler-inserted safety checks marked with
// If.Guard (delete-null-pointer-checks). Workloads only mark checks whose
// condition is dynamically always true, mirroring GCC's language-level
// guarantee that the removed null checks cannot fire.
func removeGuards(fn *ir.Func) {
	fn.Body = removeGuardList(fn.Body)
}

func removeGuardList(list []ir.Stmt) []ir.Stmt {
	out := make([]ir.Stmt, 0, len(list))
	for _, s := range list {
		switch st := s.(type) {
		case *ir.If:
			st.Then = removeGuardList(st.Then)
			st.Else = removeGuardList(st.Else)
			if st.Guard && len(st.Else) == 0 {
				out = append(out, st.Then...)
				continue
			}
			out = append(out, st)
		case *ir.For:
			st.Body = removeGuardList(st.Body)
			out = append(out, st)
		case *ir.While:
			st.Body = removeGuardList(st.Body)
			out = append(out, st)
		default:
			out = append(out, s)
		}
	}
	return out
}
