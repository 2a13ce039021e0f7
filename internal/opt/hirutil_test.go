package opt

import (
	"reflect"
	"testing"

	"peak/internal/ir"
	"peak/internal/irbuild"
	"peak/internal/machine"
)

// TestStoredArraysRecursiveCalls: storedArrays follows calls through a
// recursive call graph once per function and still finds every store, so
// compiling a recursive program ends in the callee-nesting error rather
// than unbounded recursion in the loop passes' summaries.
func TestStoredArraysRecursiveCalls(t *testing.T) {
	prog := ir.NewProgram()
	prog.AddArray("buf", ir.F64, 8)
	prog.AddArray("acc", ir.F64, 8)
	f := irbuild.NewFunc("f")
	f.ScalarParam("n", ir.I64)
	fn := f.Body(
		f.For("i", f.I(0), f.V("n"), 1, f.Set(f.At("buf", f.V("i")), f.Call("g", f.V("i")))),
		f.Ret(f.F(0)),
	)
	prog.AddFunc(fn)
	g := irbuild.NewFunc("g")
	g.ScalarParam("x", ir.I64)
	prog.AddFunc(g.Body(
		g.For("j", g.I(0), g.V("x"), 1, g.Set(g.At("acc", g.V("j")), g.Call("f", g.V("j")))),
		g.Ret(g.F(1)),
	))

	stored := map[string]bool{}
	storedArrays(fn.Body, prog, stored)
	if want := map[string]bool{"buf": true, "acc": true}; !reflect.DeepEqual(stored, want) {
		t.Errorf("stored = %v, want %v", stored, want)
	}
	if _, err := Compile(prog, fn, O3(), machine.SPARCII()); err == nil {
		t.Error("recursive program compiled without the callee-nesting error")
	}
}
