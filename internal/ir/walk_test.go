package ir

import (
	"fmt"
	"reflect"
	"testing"
)

// stmtLabel names a statement for order assertions: counters by ID,
// compound statements by kind.
func stmtLabel(s Stmt) string {
	switch st := s.(type) {
	case *Counter:
		return fmt.Sprintf("c%d", st.ID)
	case *If:
		return "if"
	case *For:
		return "for"
	case *While:
		return "while"
	}
	return fmt.Sprintf("%T", s)
}

// nestedList is c1; if { c2; while { c3 } } else { c4 }; for { c5 }; c6.
func nestedList() []Stmt {
	return []Stmt{
		&Counter{ID: 1},
		&If{
			Cond: &VarRef{Name: "p"},
			Then: []Stmt{&Counter{ID: 2}, &While{Cond: &VarRef{Name: "q"}, Body: []Stmt{&Counter{ID: 3}}}},
			Else: []Stmt{&Counter{ID: 4}},
		},
		&For{Var: "i", From: &ConstInt{V: 0}, To: &ConstInt{V: 4}, Step: 1, Body: []Stmt{&Counter{ID: 5}}},
		&Counter{ID: 6},
	}
}

func TestRewriteStmtsPostOrderNoRewalk(t *testing.T) {
	list := nestedList()
	var order []string
	out := RewriteStmts(list, func(out []Stmt, s Stmt) []Stmt {
		order = append(order, stmtLabel(s))
		c, ok := s.(*Counter)
		switch {
		case ok && c.ID == 2:
			// Replaced by two statements.
			return append(out, &Counter{ID: 20}, &Counter{ID: 21})
		case ok && c.ID == 4:
			// Dropped.
			return out
		case ok && c.ID == 6:
			// Replaced by a loop whose body must not be walked.
			return append(out, &While{Cond: &VarRef{Name: "r"}, Body: []Stmt{&Counter{ID: 99}}})
		}
		return append(out, s)
	})
	want := []string{"c1", "c2", "c3", "while", "c4", "if", "c5", "for", "c6"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("f called on %v, want children first in list order %v", order, want)
	}
	var labels []string
	VisitStmts(out, func(s Stmt) { labels = append(labels, stmtLabel(s)) })
	wantTree := []string{"c1", "if", "c20", "c21", "while", "c3", "for", "c5", "while", "c99"}
	if !reflect.DeepEqual(labels, wantTree) {
		t.Errorf("rewritten tree %v, want %v", labels, wantTree)
	}
	if n := len(out[1].(*If).Else); n != 0 {
		t.Errorf("dropped statement left %d in Else", n)
	}
}

func TestVisitStmtsPreOrder(t *testing.T) {
	var order []string
	VisitStmts(nestedList(), func(s Stmt) { order = append(order, stmtLabel(s)) })
	want := []string{"c1", "if", "c2", "while", "c3", "c4", "for", "c5", "c6"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("visited %v, want %v", order, want)
	}
}

func TestVisitExprsSlotOrder(t *testing.T) {
	v := func(name string) Expr { return &VarRef{Name: name} }
	list := []Stmt{
		&Assign{Lhs: &ArrayRef{Name: "a", Index: v("lhsIndex")}, Rhs: v("rhs")},
		&If{
			Cond: v("ifCond"),
			Then: []Stmt{&Assign{Lhs: v("scalarLhs"), Rhs: v("thenRhs")}},
			Else: []Stmt{&Return{Value: v("elseReturn")}},
		},
		&For{Var: "i", From: v("from"), To: v("to"), Step: 1, Body: []Stmt{
			&CallStmt{Fn: "f", Args: []Expr{v("arg0"), v("arg1")}},
		}},
		&While{Cond: v("whileCond"), Body: []Stmt{&Return{}, &Break{}, &Counter{ID: 0}}},
		&Return{Value: v("return")},
	}
	var order []string
	VisitExprs(list, func(e *Expr) {
		order = append(order, (*e).String())
		*e = &ConstInt{V: int64(len(order))}
	})
	want := []string{"rhs", "lhsIndex", "ifCond", "thenRhs", "elseReturn",
		"from", "to", "arg0", "arg1", "whileCond", "return"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("slots visited %v, want %v", order, want)
	}
	// Slots are writable; the store target and scalar Lhs are not slots.
	as := list[0].(*Assign)
	if as.Lhs.(*ArrayRef).Name != "a" || as.Lhs.(*ArrayRef).Index.String() != "2" || as.Rhs.String() != "1" {
		t.Errorf("first assignment rewritten to %s = %s", as.Lhs, as.Rhs)
	}
	if lhs := list[1].(*If).Then[0].(*Assign).Lhs.String(); lhs != "scalarLhs" {
		t.Errorf("scalar Lhs rewritten to %s", lhs)
	}
}

func TestWalkExprVisitsSelect(t *testing.T) {
	sel := &Select{
		Cond: &ArrayRef{Name: "a", Index: &VarRef{Name: "i"}},
		X:    &Unary{Op: OpNeg, X: &VarRef{Name: "x"}},
		Y:    &CallExpr{Fn: "max", Args: []Expr{&VarRef{Name: "y"}, &ConstInt{V: 1}}},
	}
	var order []string
	WalkExpr(sel, func(e Expr) { order = append(order, e.String()) })
	want := []string{sel.String(), "a[i]", "i", "-(x)", "x", "max(y, 1)", "y", "1"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("walked %v, want %v", order, want)
	}

	// RewriteExpr reaches every Select operand, children before parents.
	var post []string
	got := RewriteExpr(sel, func(e Expr) Expr {
		post = append(post, e.String())
		if vr, ok := e.(*VarRef); ok {
			return &VarRef{Name: vr.Name + "2"}
		}
		return e
	})
	if s := got.String(); s != "(a[i2] ? -(x2) : max(y2, 1))" {
		t.Errorf("rewrote to %s", s)
	}
	if post[len(post)-1] != got.String() {
		t.Errorf("Select rewritten before its operands: %v", post)
	}
}
