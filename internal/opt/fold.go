package opt

import (
	"math"

	"peak/internal/ir"
)

// foldConstants performs constant folding and algebraic simplification over
// the whole function. It always runs (a "-O" baseline cleanup, not one of
// the 38 tunable options).
func foldConstants(fn *ir.Func) {
	rewriteStmtExprs(fn.Body, foldExpr)
}

func constValue(e ir.Expr) (float64, ir.Type, bool) {
	switch ex := e.(type) {
	case *ir.ConstInt:
		return float64(ex.V), ir.I64, true
	case *ir.ConstFloat:
		return ex.V, ir.F64, true
	}
	return 0, ir.I64, false
}

func makeConst(v float64, typ ir.Type) ir.Expr {
	// The execution engine computes all arithmetic on float64; the type
	// tag only selects the cost class. A constant may therefore be
	// fractional even under an integer-class operator (mixed-literal
	// expressions), and must not be truncated.
	if typ == ir.F64 || v != math.Trunc(v) || math.Abs(v) > 1<<53 {
		return &ir.ConstFloat{V: v}
	}
	return &ir.ConstInt{V: int64(v)}
}

func isZero(e ir.Expr) bool {
	v, _, ok := constValue(e)
	return ok && v == 0
}

func isOne(e ir.Expr) bool {
	v, _, ok := constValue(e)
	return ok && v == 1
}

// foldExpr folds one node whose children are already folded.
func foldExpr(e ir.Expr) ir.Expr {
	switch ex := e.(type) {
	case *ir.Unary:
		if v, typ, ok := constValue(ex.X); ok {
			switch ex.Op {
			case ir.OpNeg:
				return makeConst(-v, typ)
			case ir.OpNot:
				if v == 0 {
					return &ir.ConstInt{V: 1}
				}
				return &ir.ConstInt{V: 0}
			}
		}
	case *ir.Binary:
		xv, _, xok := constValue(ex.X)
		yv, _, yok := constValue(ex.Y)
		if xok && yok {
			if out, ok := evalBinary(ex.Op, ex.Typ, xv, yv); ok {
				if ex.Op.IsComparison() {
					return makeConst(out, ir.I64)
				}
				return makeConst(out, ex.Typ)
			}
			return e
		}
		// Algebraic identities.
		switch ex.Op {
		case ir.OpAdd:
			if isZero(ex.X) {
				return ex.Y
			}
			if isZero(ex.Y) {
				return ex.X
			}
		case ir.OpSub:
			if isZero(ex.Y) {
				return ex.X
			}
		case ir.OpMul:
			if isOne(ex.X) {
				return ex.Y
			}
			if isOne(ex.Y) {
				return ex.X
			}
			// x*0 is folded only for integers (0*NaN != 0 in floats), and
			// only when the discarded operand has no side effects and
			// cannot fault.
			if ex.Typ == ir.I64 && !exprHasCall(ex) && !exprMayFault(ex) {
				if isZero(ex.X) || isZero(ex.Y) {
					return &ir.ConstInt{V: 0}
				}
			}
		case ir.OpDiv:
			// Integer division truncates its operands in the engine, so
			// x/1 is only an identity for float division.
			if ex.Typ == ir.F64 && isOne(ex.Y) {
				return ex.X
			}
		}
		// x|0, x^0, x<<0, x>>0 are NOT identities here: the engine
		// coerces bitwise/shift operands through int64, which truncates
		// fractional values; folding them away would skip the coercion.
	case *ir.Select:
		// A select evaluates both arms (it lowers to LSelect), so folding
		// away an arm must not delete its faults or calls.
		if v, _, ok := constValue(ex.Cond); ok {
			if v != 0 && !exprMayFault(ex.Y) && !exprHasCall(ex.Y) {
				return ex.X
			}
			if v == 0 && !exprMayFault(ex.X) && !exprHasCall(ex.X) {
				return ex.Y
			}
		}
	case *ir.CallExpr:
		// Fold pure unary intrinsics of constants.
		if len(ex.Args) == 1 {
			if v, _, ok := constValue(ex.Args[0]); ok {
				switch ex.Fn {
				case "sqrt":
					return &ir.ConstFloat{V: math.Sqrt(v)}
				case "abs":
					return &ir.ConstFloat{V: math.Abs(v)}
				case "floor":
					return &ir.ConstFloat{V: math.Floor(v)}
				}
			}
		}
	}
	return e
}

func exprHasCall(e ir.Expr) bool {
	has := false
	ir.WalkExpr(e, func(x ir.Expr) {
		if _, ok := x.(*ir.CallExpr); ok {
			has = true
		}
	})
	return has
}

// exprMayFault reports whether evaluating e can raise a simulated runtime
// error: integer division/modulo with a possibly-zero divisor, a memory
// access (bounds), or a user call. Folds that discard a subexpression
// (x*0, constant selects) must not delete a fault the engine would raise.
func exprMayFault(e ir.Expr) bool {
	fault := false
	ir.WalkExpr(e, func(x ir.Expr) {
		switch ex := x.(type) {
		case *ir.ArrayRef:
			fault = true
		case *ir.CallExpr:
			if _, ok := ir.IsIntrinsic(ex.Fn); !ok {
				fault = true
			}
		case *ir.Binary:
			if ex.Typ == ir.I64 && (ex.Op == ir.OpDiv || ex.Op == ir.OpMod) {
				if v, _, ok := constValue(ex.Y); !ok || v == 0 {
					fault = true
				}
			}
		}
	})
	return fault
}

// evalBinary mirrors the execution engine's semantics exactly.
func evalBinary(op ir.BinOp, typ ir.Type, x, y float64) (float64, bool) {
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	switch op {
	case ir.OpAdd:
		return x + y, true
	case ir.OpSub:
		return x - y, true
	case ir.OpMul:
		return x * y, true
	case ir.OpDiv:
		if typ == ir.F64 {
			return x / y, true
		}
		if int64(y) == 0 {
			return 0, false // preserve the runtime error
		}
		return float64(int64(x) / int64(y)), true
	case ir.OpMod:
		if int64(y) == 0 {
			return 0, false
		}
		return float64(int64(x) % int64(y)), true
	case ir.OpAnd:
		return float64(int64(x) & int64(y)), true
	case ir.OpOr:
		return float64(int64(x) | int64(y)), true
	case ir.OpXor:
		return float64(int64(x) ^ int64(y)), true
	case ir.OpShl:
		return float64(int64(x) << (uint64(int64(y)) & 63)), true
	case ir.OpShr:
		return float64(int64(x) >> (uint64(int64(y)) & 63)), true
	case ir.OpEq:
		return b2f(x == y), true
	case ir.OpNe:
		return b2f(x != y), true
	case ir.OpLt:
		return b2f(x < y), true
	case ir.OpLe:
		return b2f(x <= y), true
	case ir.OpGt:
		return b2f(x > y), true
	case ir.OpGe:
		return b2f(x >= y), true
	}
	return 0, false
}

// propagateCopies performs copy and constant propagation (cprop-registers)
// within straight-line statement segments: after `x = const` or `x = y`,
// subsequent reads of x become the constant or y until either side is
// reassigned. Propagation state is dropped at control-flow statements.
func propagateCopies(fn *ir.Func) {
	propagateSegment(fn.Body)
}

// propagateSegment stays hand-written: its kills are sequenced around the
// recursion into nested lists, which no ir primitive can interleave.
func propagateSegment(list []ir.Stmt) {
	vals := map[string]ir.Expr{} // var -> ConstInt/ConstFloat/VarRef
	invalidate := func(name string) {
		delete(vals, name)
		for k, v := range vals {
			if vr, ok := v.(*ir.VarRef); ok && vr.Name == name {
				delete(vals, k)
			}
		}
	}
	substitute := func(e ir.Expr) ir.Expr {
		return ir.RewriteExpr(e, func(x ir.Expr) ir.Expr {
			if vr, ok := x.(*ir.VarRef); ok {
				if rep, ok := vals[vr.Name]; ok {
					return rep.Clone()
				}
			}
			return foldExpr(x)
		})
	}
	for _, s := range list {
		switch st := s.(type) {
		case *ir.Assign:
			st.Rhs = substitute(st.Rhs)
			// User calls may write global scalars; drop every fact (we
			// cannot distinguish locals from globals here).
			hadCall := hasUserCall(st.Rhs)
			if hadCall {
				vals = map[string]ir.Expr{}
			}
			switch lhs := st.Lhs.(type) {
			case *ir.ArrayRef:
				lhs.Index = substitute(lhs.Index)
			case *ir.VarRef:
				invalidate(lhs.Name)
				switch rhs := st.Rhs.(type) {
				case *ir.ConstInt, *ir.ConstFloat:
					vals[lhs.Name] = rhs
				case *ir.VarRef:
					if rhs.Name != lhs.Name && !hadCall {
						vals[lhs.Name] = rhs
					}
				}
			}
		case *ir.If:
			st.Cond = substitute(st.Cond)
			propagateSegment(st.Then)
			propagateSegment(st.Else)
			// Assignments in either arm invalidate facts.
			killed := map[string]bool{}
			assignedVars(st.Then, killed)
			assignedVars(st.Else, killed)
			for k := range killed {
				invalidate(k)
			}
		case *ir.For:
			st.From = substitute(st.From)
			// To is re-evaluated each iteration; only propagate values not
			// killed by the body.
			killed := map[string]bool{st.Var: true}
			assignedVars(st.Body, killed)
			for k := range killed {
				invalidate(k)
			}
			st.To = substitute(st.To)
			propagateSegment(st.Body)
		case *ir.While:
			killed := map[string]bool{}
			assignedVars(st.Body, killed)
			for k := range killed {
				invalidate(k)
			}
			st.Cond = substitute(st.Cond)
			propagateSegment(st.Body)
		case *ir.Return:
			if st.Value != nil {
				st.Value = substitute(st.Value)
			}
		case *ir.CallStmt:
			for i, a := range st.Args {
				st.Args[i] = substitute(a)
			}
			// Calls may write global scalars; drop every fact.
			vals = map[string]ir.Expr{}
		}
	}
}
