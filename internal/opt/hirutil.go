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

// walkExpr visits e and all subexpressions, pre-order.
func walkExpr(e ir.Expr, visit func(ir.Expr)) {
	if e == nil {
		return
	}
	visit(e)
	switch ex := e.(type) {
	case *ir.ArrayRef:
		walkExpr(ex.Index, visit)
	case *ir.Unary:
		walkExpr(ex.X, visit)
	case *ir.Binary:
		walkExpr(ex.X, visit)
		walkExpr(ex.Y, visit)
	case *ir.CallExpr:
		for _, a := range ex.Args {
			walkExpr(a, visit)
		}
	case *ir.Select:
		walkExpr(ex.Cond, visit)
		walkExpr(ex.X, visit)
		walkExpr(ex.Y, visit)
	}
}

// rewriteExpr rebuilds e bottom-up through f: children are rewritten first,
// then f is applied to the node. f may return a replacement or its argument.
func rewriteExpr(e ir.Expr, f func(ir.Expr) ir.Expr) ir.Expr {
	switch ex := e.(type) {
	case *ir.ArrayRef:
		ex.Index = rewriteExpr(ex.Index, f)
	case *ir.Unary:
		ex.X = rewriteExpr(ex.X, f)
	case *ir.Binary:
		ex.X = rewriteExpr(ex.X, f)
		ex.Y = rewriteExpr(ex.Y, f)
	case *ir.CallExpr:
		for i, a := range ex.Args {
			ex.Args[i] = rewriteExpr(a, f)
		}
	case *ir.Select:
		ex.Cond = rewriteExpr(ex.Cond, f)
		ex.X = rewriteExpr(ex.X, f)
		ex.Y = rewriteExpr(ex.Y, f)
	}
	return f(e)
}

// rewriteStmtExprs applies rw to every expression in the statement list,
// in evaluation order. Assignment targets have only their index expressions
// rewritten (the base VarRef/ArrayRef identity is preserved).
func rewriteStmtExprs(list []ir.Stmt, rw func(ir.Expr) ir.Expr) {
	for _, s := range list {
		switch st := s.(type) {
		case *ir.Assign:
			st.Rhs = rewriteExpr(st.Rhs, rw)
			if ar, ok := st.Lhs.(*ir.ArrayRef); ok {
				ar.Index = rewriteExpr(ar.Index, rw)
			}
		case *ir.If:
			st.Cond = rewriteExpr(st.Cond, rw)
			rewriteStmtExprs(st.Then, rw)
			rewriteStmtExprs(st.Else, rw)
		case *ir.For:
			st.From = rewriteExpr(st.From, rw)
			st.To = rewriteExpr(st.To, rw)
			rewriteStmtExprs(st.Body, rw)
		case *ir.While:
			st.Cond = rewriteExpr(st.Cond, rw)
			rewriteStmtExprs(st.Body, rw)
		case *ir.Return:
			if st.Value != nil {
				st.Value = rewriteExpr(st.Value, rw)
			}
		case *ir.CallStmt:
			for i, a := range st.Args {
				st.Args[i] = rewriteExpr(a, rw)
			}
		}
	}
}

// assignedVars collects names of scalars assigned anywhere in the list
// (including loop variables of nested For statements).
func assignedVars(list []ir.Stmt, out map[string]bool) {
	for _, s := range list {
		switch st := s.(type) {
		case *ir.Assign:
			if v, ok := st.Lhs.(*ir.VarRef); ok {
				out[v.Name] = true
			}
		case *ir.If:
			assignedVars(st.Then, out)
			assignedVars(st.Else, out)
		case *ir.For:
			out[st.Var] = true
			assignedVars(st.Body, out)
		case *ir.While:
			assignedVars(st.Body, out)
		}
	}
}

// storedArrays collects names of arrays stored to anywhere in the list,
// following calls through prog when it is non-nil.
func storedArrays(list []ir.Stmt, prog *ir.Program, out map[string]bool) {
	var visitCall func(fn string)
	seen := map[string]bool{}
	visitCall = func(fn string) {
		if _, ok := ir.IsIntrinsic(fn); ok {
			return
		}
		if prog == nil || seen[fn] {
			return
		}
		seen[fn] = true
		if callee, ok := prog.Funcs[fn]; ok {
			storedArrays(callee.Body, prog, out)
		}
	}
	var walk func(list []ir.Stmt)
	checkCalls := func(e ir.Expr) {
		walkExpr(e, func(x ir.Expr) {
			if c, ok := x.(*ir.CallExpr); ok {
				visitCall(c.Fn)
			}
		})
	}
	walk = func(list []ir.Stmt) {
		for _, s := range list {
			switch st := s.(type) {
			case *ir.Assign:
				if a, ok := st.Lhs.(*ir.ArrayRef); ok {
					out[a.Name] = true
					checkCalls(a.Index)
				}
				checkCalls(st.Rhs)
			case *ir.If:
				checkCalls(st.Cond)
				walk(st.Then)
				walk(st.Else)
			case *ir.For:
				checkCalls(st.From)
				checkCalls(st.To)
				walk(st.Body)
			case *ir.While:
				checkCalls(st.Cond)
				walk(st.Body)
			case *ir.Return:
				if st.Value != nil {
					checkCalls(st.Value)
				}
			case *ir.CallStmt:
				visitCall(st.Fn)
				for _, a := range st.Args {
					checkCalls(a)
				}
			}
		}
	}
	walk(list)
	return
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
	walkExpr(e, func(x ir.Expr) {
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
	walkExpr(e, func(ir.Expr) { n++ })
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
