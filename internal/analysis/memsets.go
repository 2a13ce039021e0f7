package analysis

import (
	"sort"

	"peak/internal/ir"
	"peak/internal/lower"
)

// MemEffects summarizes the memory behaviour of a tuning section at array
// granularity (including the reserved globals array).
type MemEffects struct {
	// Reads are arrays with at least one load.
	Reads map[string]bool
	// Writes are arrays with at least one store (the Def set of the TS).
	Writes map[string]bool
	// CallsUnknown reports calls to functions outside the program
	// (impossible by construction) — retained for interface completeness.
	CallsUnknown bool
}

// ModifiedInput returns Input(TS) ∩ Def(TS): the arrays that must be saved
// and restored by RBR (paper Eq. 6). At array granularity the input set of
// memory is the read set, so this is Reads ∩ Writes, sorted for determinism.
func (e *MemEffects) ModifiedInput() []string {
	var out []string
	for a := range e.Writes {
		if e.Reads[a] {
			out = append(out, a)
		}
	}
	sort.Strings(out)
	return out
}

// Effects computes MemEffects for fn, following user-function calls
// transitively through prog.
func Effects(fn *ir.Func, prog *ir.Program) *MemEffects {
	e := &MemEffects{Reads: map[string]bool{}, Writes: map[string]bool{}}
	visited := map[string]bool{}
	var walkFn func(f *ir.Func)
	call := func(name string) {
		if _, ok := ir.IsIntrinsic(name); !ok {
			if callee, ok := prog.Funcs[name]; ok && !visited[name] {
				visited[name] = true
				walkFn(callee)
			}
		}
	}
	read := func(x ir.Expr) {
		switch ex := x.(type) {
		case *ir.ArrayRef:
			e.Reads[ex.Name] = true
		case *ir.VarRef:
			// Global scalars lower to reads of the globals array.
			if isGlobal(prog, ex.Name) {
				e.Reads[lower.GlobalsArray] = true
			}
		case *ir.CallExpr:
			call(ex.Fn)
		}
	}
	walkFn = func(f *ir.Func) {
		ir.VisitStmts(f.Body, func(s ir.Stmt) {
			ir.StmtExprs(s, func(x *ir.Expr) { ir.WalkExpr(*x, read) })
			switch st := s.(type) {
			case *ir.Assign:
				switch lhs := st.Lhs.(type) {
				case *ir.ArrayRef:
					e.Writes[lhs.Name] = true
				case *ir.VarRef:
					if isGlobal(prog, lhs.Name) {
						e.Writes[lower.GlobalsArray] = true
					}
				}
			case *ir.CallStmt:
				call(st.Fn)
			}
		})
	}
	walkFn(fn)
	return e
}

// isGlobal reports whether name is a global scalar of prog and not shadowed
// by a local or parameter (callers pass the function being walked; shadowing
// by locals of *other* functions is irrelevant because the walk follows
// names per function — conservatively we only check the program here, which
// can only enlarge the effect sets).
func isGlobal(prog *ir.Program, name string) bool {
	return lower.GlobalIndex(prog, name) >= 0
}
