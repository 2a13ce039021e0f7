package ir

// HIR traversal. Every optimizer pass and analysis visits statements and
// expressions through these primitives, so all of them agree on which
// statements nest and which expression slots a statement has. The few
// walkers that stay hand-written (lowering, the program-key hash, CSE's
// rewrite, copy propagation and counter insertion) say why at their site.

// WalkExpr visits e and all its subexpressions, pre-order. A nil e visits
// nothing.
func WalkExpr(e Expr, visit func(Expr)) {
	if e == nil {
		return
	}
	visit(e)
	switch ex := e.(type) {
	case *ArrayRef:
		WalkExpr(ex.Index, visit)
	case *Unary:
		WalkExpr(ex.X, visit)
	case *Binary:
		WalkExpr(ex.X, visit)
		WalkExpr(ex.Y, visit)
	case *CallExpr:
		for _, a := range ex.Args {
			WalkExpr(a, visit)
		}
	case *Select:
		WalkExpr(ex.Cond, visit)
		WalkExpr(ex.X, visit)
		WalkExpr(ex.Y, visit)
	}
}

// RewriteExpr rebuilds e bottom-up through f: children are rewritten first,
// then f is applied to the node. f may return a replacement or its argument.
func RewriteExpr(e Expr, f func(Expr) Expr) Expr {
	switch ex := e.(type) {
	case *ArrayRef:
		ex.Index = RewriteExpr(ex.Index, f)
	case *Unary:
		ex.X = RewriteExpr(ex.X, f)
	case *Binary:
		ex.X = RewriteExpr(ex.X, f)
		ex.Y = RewriteExpr(ex.Y, f)
	case *CallExpr:
		for i, a := range ex.Args {
			ex.Args[i] = RewriteExpr(a, f)
		}
	case *Select:
		ex.Cond = RewriteExpr(ex.Cond, f)
		ex.X = RewriteExpr(ex.X, f)
		ex.Y = RewriteExpr(ex.Y, f)
	}
	return f(e)
}

// RewriteStmts rebuilds list post-order. For each statement in list order
// it first rewrites the statement's nested lists (If.Then, If.Else, For.Body,
// While.Body), then calls f, which appends the statement's replacement to
// out and returns it: the statement itself to keep it, nothing to drop it,
// or any statements in its place. What f appends is not walked again.
func RewriteStmts(list []Stmt, f func(out []Stmt, s Stmt) []Stmt) []Stmt {
	out := make([]Stmt, 0, len(list))
	for _, s := range list {
		switch st := s.(type) {
		case *If:
			st.Then = RewriteStmts(st.Then, f)
			st.Else = RewriteStmts(st.Else, f)
		case *For:
			st.Body = RewriteStmts(st.Body, f)
		case *While:
			st.Body = RewriteStmts(st.Body, f)
		}
		out = f(out, s)
	}
	return out
}

// VisitStmts calls visit on every statement of list and of its nested
// lists, pre-order: a statement before its children, If.Then before
// If.Else.
func VisitStmts(list []Stmt, visit func(Stmt)) {
	for _, s := range list {
		visit(s)
		switch st := s.(type) {
		case *If:
			VisitStmts(st.Then, visit)
			VisitStmts(st.Else, visit)
		case *For:
			VisitStmts(st.Body, visit)
		case *While:
			VisitStmts(st.Body, visit)
		}
	}
}

// StmtExprs calls visit on each expression slot of s itself, not of its
// nested statements, in evaluation order: Assign.Rhs then the index of an
// array Lhs (a store's target array, and a scalar Lhs, are not slots),
// If.Cond, For.From then For.To, While.Cond, a non-nil Return.Value, and
// the CallStmt arguments. visit may replace the slot's expression.
func StmtExprs(s Stmt, visit func(*Expr)) {
	switch st := s.(type) {
	case *Assign:
		visit(&st.Rhs)
		if ar, ok := st.Lhs.(*ArrayRef); ok {
			visit(&ar.Index)
		}
	case *If:
		visit(&st.Cond)
	case *For:
		visit(&st.From)
		visit(&st.To)
	case *While:
		visit(&st.Cond)
	case *Return:
		if st.Value != nil {
			visit(&st.Value)
		}
	case *CallStmt:
		for i := range st.Args {
			visit(&st.Args[i])
		}
	}
}

// VisitExprs calls visit on every expression slot of every statement in
// list and its nested lists: statements pre-order as VisitStmts, each
// statement's slots in StmtExprs order.
func VisitExprs(list []Stmt, visit func(*Expr)) {
	VisitStmts(list, func(s Stmt) { StmtExprs(s, visit) })
}
