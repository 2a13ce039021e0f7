// HIR helpers shared by the optimizer's passes: expression keys and
// properties, region summaries and temporaries. HIR traversal itself lives
// in internal/ir (walk.go); every pass walks through it except CSE's
// rewrite (cse.go) and copy propagation (fold.go), whose kills are
// sequenced around the recursion. Outside this package, lowering and the
// program-key hash (internal/vcache/hash.go) stay hand-written too, as
// does analysis.Instrument.

package opt

import (
	"fmt"
	"strings"

	"peak/internal/ir"
)

// exprKey returns a canonical string for structural expression equality,
// with commutative operands ordered canonically so `a+b` and `b+a` match.
func exprKey(e ir.Expr) string {
	switch ex := e.(type) {
	case *ir.ConstInt:
		return fmt.Sprintf("i%d", ex.V)
	case *ir.ConstFloat:
		return fmt.Sprintf("f%x", ex.V)
	case *ir.VarRef:
		return "v:" + ex.Name
	case *ir.ArrayRef:
		return "m:" + ex.Name + "[" + exprKey(ex.Index) + "]"
	case *ir.Unary:
		return ex.Op.String() + "(" + exprKey(ex.X) + ")"
	case *ir.Binary:
		x, y := exprKey(ex.X), exprKey(ex.Y)
		if ex.Op.Commutative() && y < x {
			x, y = y, x
		}
		return fmt.Sprintf("(%s %s#%d %s)", x, ex.Op, ex.Typ, y)
	case *ir.CallExpr:
		parts := make([]string, len(ex.Args))
		for i, a := range ex.Args {
			parts[i] = exprKey(a)
		}
		return "c:" + ex.Fn + "(" + strings.Join(parts, ",") + ")"
	case *ir.Select:
		return "s:(" + exprKey(ex.Cond) + "?" + exprKey(ex.X) + ":" + exprKey(ex.Y) + ")"
	}
	return fmt.Sprintf("?%T", e)
}

// rewriteStmtExprs rewrites every expression slot of the statement list
// bottom-up through rw, in ir.VisitExprs order. Assignment targets have only
// their index expressions rewritten (the base VarRef/ArrayRef identity is
// preserved).
func rewriteStmtExprs(list []ir.Stmt, rw func(ir.Expr) ir.Expr) {
	ir.VisitExprs(list, func(e *ir.Expr) { *e = ir.RewriteExpr(*e, rw) })
}

// assignedVars collects names of scalars assigned anywhere in the list
// (including loop variables of nested For statements).
func assignedVars(list []ir.Stmt, out map[string]bool) {
	ir.VisitStmts(list, func(s ir.Stmt) {
		switch st := s.(type) {
		case *ir.Assign:
			if v, ok := st.Lhs.(*ir.VarRef); ok {
				out[v.Name] = true
			}
		case *ir.For:
			out[st.Var] = true
		}
	})
}

// storedArrays collects names of arrays stored to anywhere in the list,
// following calls through prog when it is non-nil.
func storedArrays(list []ir.Stmt, prog *ir.Program, out map[string]bool) {
	seen := map[string]bool{}
	var walk func(list []ir.Stmt)
	visitCall := func(fn string) {
		if _, ok := ir.IsIntrinsic(fn); ok || prog == nil || seen[fn] {
			return
		}
		seen[fn] = true
		if callee, ok := prog.Funcs[fn]; ok {
			walk(callee.Body)
		}
	}
	walk = func(list []ir.Stmt) {
		ir.VisitStmts(list, func(s ir.Stmt) {
			switch st := s.(type) {
			case *ir.Assign:
				if a, ok := st.Lhs.(*ir.ArrayRef); ok {
					out[a.Name] = true
				}
			case *ir.CallStmt:
				visitCall(st.Fn)
			}
			ir.StmtExprs(s, func(e *ir.Expr) {
				ir.WalkExpr(*e, func(x ir.Expr) {
					if c, ok := x.(*ir.CallExpr); ok {
						visitCall(c.Fn)
					}
				})
			})
		})
	}
	walk(list)
}

// exprProps summarizes an expression for legality checks.
type exprProps struct {
	hasLoad     bool
	hasUserCall bool
	hasCall     bool // any call, including intrinsics
	loads       map[string]bool
	vars        map[string]bool
}

func analyzeExpr(e ir.Expr) exprProps {
	p := exprProps{loads: map[string]bool{}, vars: map[string]bool{}}
	ir.WalkExpr(e, func(x ir.Expr) {
		switch ex := x.(type) {
		case *ir.ArrayRef:
			p.hasLoad = true
			p.loads[ex.Name] = true
		case *ir.VarRef:
			p.vars[ex.Name] = true
		case *ir.CallExpr:
			p.hasCall = true
			if _, ok := ir.IsIntrinsic(ex.Fn); !ok {
				p.hasUserCall = true
			}
		}
	})
	return p
}

// hasUserCall reports whether e calls a user (non-intrinsic) function:
// analyzeExpr(e).hasUserCall without building the load and variable maps.
func hasUserCall(e ir.Expr) bool {
	switch ex := e.(type) {
	case *ir.ArrayRef:
		return hasUserCall(ex.Index)
	case *ir.Unary:
		return hasUserCall(ex.X)
	case *ir.Binary:
		return hasUserCall(ex.X) || hasUserCall(ex.Y)
	case *ir.CallExpr:
		if _, ok := ir.IsIntrinsic(ex.Fn); !ok {
			return true
		}
		for _, a := range ex.Args {
			if hasUserCall(a) {
				return true
			}
		}
	case *ir.Select:
		return hasUserCall(ex.Cond) || hasUserCall(ex.X) || hasUserCall(ex.Y)
	}
	return false
}

// exprSize counts operator/reference nodes (a rough cost proxy).
func exprSize(e ir.Expr) int {
	n := 0
	ir.WalkExpr(e, func(ir.Expr) { n++ })
	return n
}

// tempNamer hands out fresh local names for compiler temporaries.
type tempNamer struct {
	fn   *ir.Func
	next int
}

func newTempNamer(fn *ir.Func) *tempNamer { return &tempNamer{fn: fn} }

// fresh declares and returns a new temporary local of the given type.
func (t *tempNamer) fresh(typ ir.Type) string {
	for {
		name := fmt.Sprintf(".t%d", t.next)
		t.next++
		if !t.fn.IsLocal(name) && !t.fn.IsParam(name) {
			t.fn.Locals = append(t.fn.Locals, ir.Local{Name: name, Typ: typ})
			return name
		}
	}
}

// exprType infers whether an expression is floating point (best effort,
// for temp typing; wrong guesses only affect cost class, not values).
func exprType(e ir.Expr, fn *ir.Func, prog *ir.Program) ir.Type {
	switch ex := e.(type) {
	case *ir.ConstInt:
		return ir.I64
	case *ir.ConstFloat:
		return ir.F64
	case *ir.VarRef:
		for _, p := range fn.Params {
			if p.Name == ex.Name && !p.IsArray {
				return p.Typ
			}
		}
		for _, l := range fn.Locals {
			if l.Name == ex.Name {
				return l.Typ
			}
		}
		if prog != nil {
			for _, g := range prog.Scalars {
				if g.Name == ex.Name {
					return g.Typ
				}
			}
		}
		return ir.I64
	case *ir.ArrayRef:
		if prog != nil {
			if a, ok := prog.Array(ex.Name); ok {
				return a.Typ
			}
		}
		return ir.F64
	case *ir.Unary:
		return exprType(ex.X, fn, prog)
	case *ir.Binary:
		if ex.Op.IsComparison() {
			return ir.I64
		}
		return ex.Typ
	case *ir.CallExpr:
		return ir.F64
	case *ir.Select:
		return exprType(ex.X, fn, prog)
	}
	return ir.I64
}
