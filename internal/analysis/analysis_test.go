package analysis

import (
	"math/rand"
	"testing"
	"testing/quick"

	"peak/internal/ir"
	"peak/internal/irbuild"
)

// --- context-variable analysis (paper Figure 1) ------------------------------

func TestContextScalarParams(t *testing.T) {
	prog := ir.NewProgram()
	prog.AddArray("a", ir.F64, 64)
	b := irbuild.NewFunc("f")
	b.ScalarParam("n", ir.I64).ScalarParam("m", ir.I64).ScalarParam("w", ir.F64)
	fn := b.Body(
		b.For("i", b.I(0), b.V("n"), 1,
			b.If(b.Lt(b.V("i"), b.V("m")),
				b.Set(b.At("a", b.V("i")), b.V("w")),
			),
		),
	)
	prog.AddFunc(fn)
	cs, err := GetContextSet(fn, prog)
	if err != nil {
		t.Fatal(err)
	}
	if !cs.Applicable {
		t.Fatalf("CBR inapplicable: %s", cs.Reason)
	}
	got := map[string]bool{}
	for _, v := range cs.Vars {
		got[v.String()] = true
	}
	// w influences only data, not control: it must NOT be a context var.
	if !got["n"] || !got["m"] || got["w"] {
		t.Errorf("context vars = %v, want {n, m}", cs.Vars)
	}
	if len(cs.NeedConstArrays) != 0 {
		t.Errorf("NeedConstArrays = %v, want none", cs.NeedConstArrays)
	}
}

func TestContextConstantSubscriptIsScalar(t *testing.T) {
	// Paper §2.2: "array references with constant subscripts" are scalars.
	prog := ir.NewProgram()
	prog.AddArray("cfg", ir.I64, 8)
	prog.AddArray("data", ir.F64, 64)
	b := irbuild.NewFunc("f")
	b.ScalarParam("x", ir.F64)
	fn := b.Body(
		b.For("i", b.I(0), b.At("cfg", b.I(2)), 1,
			b.Set(b.At("data", b.V("i")), b.V("x")),
		),
	)
	prog.AddFunc(fn)
	cs, err := GetContextSet(fn, prog)
	if err != nil {
		t.Fatal(err)
	}
	if !cs.Applicable {
		t.Fatalf("CBR inapplicable: %s", cs.Reason)
	}
	found := false
	for _, v := range cs.Vars {
		if v.Kind == CtxArrayElem && v.Name == "cfg" && v.Index == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("cfg[2] missing from context vars %v", cs.Vars)
	}
}

func TestContextNonConstSubscriptNeedsConstArray(t *testing.T) {
	// Control flow through a[i] with varying i: CBR applicability hinges
	// on the array being a run-time constant (the EQUAKE/smvp case).
	prog := ir.NewProgram()
	prog.AddArray("bound", ir.I64, 16)
	prog.AddArray("out", ir.F64, 64)
	b := irbuild.NewFunc("f")
	b.ScalarParam("n", ir.I64)
	fn := b.Body(
		b.For("i", b.I(0), b.V("n"), 1,
			b.For("j", b.I(0), b.At("bound", b.V("i")), 1,
				b.Set(b.At("out", b.V("j")), b.F(1)),
			),
		),
	)
	prog.AddFunc(fn)
	cs, err := GetContextSet(fn, prog)
	if err != nil {
		t.Fatal(err)
	}
	if !cs.Applicable {
		t.Fatalf("expected conditionally applicable, got: %s", cs.Reason)
	}
	if len(cs.NeedConstArrays) != 1 || cs.NeedConstArrays[0] != "bound" {
		t.Errorf("NeedConstArrays = %v, want [bound]", cs.NeedConstArrays)
	}
}

func TestContextUserCallFails(t *testing.T) {
	prog := ir.NewProgram()
	cb := irbuild.NewFunc("helper")
	cb.ScalarParam("x", ir.I64)
	prog.AddFunc(cb.Body(cb.Ret(cb.Add(cb.V("x"), cb.I(1)))))
	b := irbuild.NewFunc("f")
	b.ScalarParam("n", ir.I64).Local("lim", ir.I64)
	fn := b.Body(
		b.Set(b.V("lim"), b.Call("helper", b.V("n"))),
		b.For("i", b.I(0), b.V("lim"), 1,
			b.Set(b.V("lim"), b.V("lim")),
		),
	)
	prog.AddFunc(fn)
	cs, err := GetContextSet(fn, prog)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Applicable {
		t.Error("control flow through a user call must defeat CBR")
	}
}

func TestContextIntrinsicTracesThrough(t *testing.T) {
	prog := ir.NewProgram()
	b := irbuild.NewFunc("f")
	b.ScalarParam("n", ir.I64).Local("s", ir.I64)
	fn := b.Body(
		b.For("i", b.I(0), b.Call("imin", b.V("n"), b.I(64)), 1,
			b.Set(b.V("s"), b.Add(b.V("s"), b.V("i"))),
		),
		b.Ret(b.V("s")),
	)
	prog.AddFunc(fn)
	cs, err := GetContextSet(fn, prog)
	if err != nil {
		t.Fatal(err)
	}
	if !cs.Applicable {
		t.Fatalf("intrinsics must trace through: %s", cs.Reason)
	}
	if len(cs.Vars) != 1 || cs.Vars[0].Name != "n" {
		t.Errorf("context vars = %v, want [n]", cs.Vars)
	}
}

// --- memory effects -----------------------------------------------------------

func TestEffectsAndModifiedInput(t *testing.T) {
	prog := ir.NewProgram()
	prog.AddArray("in", ir.F64, 8)
	prog.AddArray("out", ir.F64, 8)
	prog.AddArray("acc", ir.F64, 8)
	b := irbuild.NewFunc("f")
	b.ScalarParam("n", ir.I64)
	fn := b.Body(
		b.For("i", b.I(0), b.V("n"), 1,
			b.Set(b.At("out", b.V("i")), b.At("in", b.V("i"))),
			b.Set(b.At("acc", b.V("i")), b.FAdd(b.At("acc", b.V("i")), b.F(1))),
		),
	)
	prog.AddFunc(fn)
	e := Effects(fn, prog)
	if !e.Reads["in"] || !e.Reads["acc"] || e.Reads["out"] {
		t.Errorf("reads = %v", e.Reads)
	}
	if !e.Writes["out"] || !e.Writes["acc"] || e.Writes["in"] {
		t.Errorf("writes = %v", e.Writes)
	}
	// Modified_Input = Input ∩ Def (paper Eq. 6): only acc is read AND
	// written, so RBR needs to save/restore just acc, not out.
	mi := e.ModifiedInput()
	if len(mi) != 1 || mi[0] != "acc" {
		t.Errorf("ModifiedInput = %v, want [acc]", mi)
	}
}

func TestEffectsThroughCalls(t *testing.T) {
	prog := ir.NewProgram()
	prog.AddArray("buf", ir.F64, 8)
	cb := irbuild.NewFunc("writer")
	cb.ScalarParam("i", ir.I64)
	prog.AddFunc(cb.Body(cb.Set(cb.At("buf", cb.V("i")), cb.F(1))))
	b := irbuild.NewFunc("f")
	b.ScalarParam("n", ir.I64)
	fn := b.Body(
		b.For("i", b.I(0), b.V("n"), 1, &ir.CallStmt{Fn: "writer", Args: []ir.Expr{b.V("i")}}),
	)
	prog.AddFunc(fn)
	e := Effects(fn, prog)
	if !e.Writes["buf"] {
		t.Error("writes through calls not tracked")
	}
}

// TestEffectsInsideSelect: loads and calls under an if-converted select
// count like any other operand.
func TestEffectsInsideSelect(t *testing.T) {
	prog := ir.NewProgram()
	prog.AddArray("lo", ir.F64, 8)
	prog.AddArray("hi", ir.F64, 8)
	prog.AddArray("buf", ir.F64, 8)
	prog.AddArray("out", ir.F64, 8)
	cb := irbuild.NewFunc("peek")
	cb.ScalarParam("i", ir.I64)
	prog.AddFunc(cb.Body(&ir.Return{Value: cb.At("buf", cb.V("i"))}))
	b := irbuild.NewFunc("f")
	b.ScalarParam("i", ir.I64)
	fn := b.Body(b.Set(b.At("out", b.V("i")), &ir.Select{
		Cond: b.V("i"),
		X:    b.At("lo", b.V("i")),
		Y:    b.FAdd(b.At("hi", b.V("i")), &ir.CallExpr{Fn: "peek", Args: []ir.Expr{b.V("i")}}),
	}))
	prog.AddFunc(fn)
	e := Effects(fn, prog)
	for _, a := range []string{"lo", "hi", "buf"} {
		if !e.Reads[a] {
			t.Errorf("load of %s under a select not tracked: reads = %v", a, e.Reads)
		}
	}
}

// --- instrumentation -----------------------------------------------------------

func TestInstrumentPlacesCounters(t *testing.T) {
	b := irbuild.NewFunc("f")
	b.ScalarParam("n", ir.I64).Local("s", ir.I64)
	fn := b.Body(
		b.For("i", b.I(0), b.V("n"), 1,
			b.IfElse(b.Lt(b.V("i"), b.I(5)),
				b.Stmts(b.Set(b.V("s"), b.Add(b.V("s"), b.I(1)))),
				b.Stmts(b.Set(b.V("s"), b.Add(b.V("s"), b.I(2)))),
			),
		),
	)
	instr := Instrument(fn)
	// Counters: entry + loop body + then-arm + else-arm = 4.
	if instr.NumCounters != 4 {
		t.Errorf("NumCounters = %d, want 4", instr.NumCounters)
	}
	if _, ok := instr.Body[0].(*ir.Counter); !ok {
		t.Error("entry counter missing")
	}
	if fn.NumCounters != 0 {
		t.Error("Instrument mutated its input")
	}

	stripped := StripCounters(instr, map[int]bool{0: true})
	n := countCounters(stripped.Body)
	if n != 1 {
		t.Errorf("StripCounters kept %d counters, want 1", n)
	}
	bare := StripCounters(instr, nil)
	if countCounters(bare.Body) != 0 || bare.NumCounters != 0 {
		t.Error("StripCounters(nil) must remove all instrumentation")
	}
}

func countCounters(list []ir.Stmt) int {
	n := 0
	var walk func([]ir.Stmt)
	walk = func(list []ir.Stmt) {
		for _, s := range list {
			switch st := s.(type) {
			case *ir.Counter:
				n++
			case *ir.If:
				walk(st.Then)
				walk(st.Else)
			case *ir.For:
				walk(st.Body)
			case *ir.While:
				walk(st.Body)
			}
		}
	}
	walk(list)
	return n
}

// --- component merging -----------------------------------------------------------

func TestMergeComponentsAffine(t *testing.T) {
	// counter1 = trip, counter2 = 2*trip + 1 (affine), counter0 = 1
	// (entry, constant): two components — one varying, one constant.
	var counts [][]float64
	for _, trip := range []float64{10, 20, 15, 40, 25} {
		counts = append(counts, []float64{1, trip, 2*trip + 1})
	}
	model, err := MergeComponents(counts)
	if err != nil {
		t.Fatal(err)
	}
	if len(model.Components) != 2 {
		t.Fatalf("components = %d, want 2", len(model.Components))
	}
	if model.Components[len(model.Components)-1].Constant != true {
		t.Error("constant component must come last")
	}
	varying := model.Components[0]
	if len(varying.Members) != 2 {
		t.Errorf("affine counters not merged: %+v", varying.Members)
	}
	for _, m := range varying.Members {
		if m.Counter == 2 && (m.Alpha != 2 || m.Beta != 1) {
			t.Errorf("affine coefficients = %+v, want 2x+1", m)
		}
	}
	// CountsFor uses the representative and the constant 1.
	row := model.CountsFor([]int64{1, 7, 15})
	if row[0] != 7 || row[1] != 1 {
		t.Errorf("CountsFor = %v, want [7 1]", row)
	}
}

func TestMergeComponentsIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var counts [][]float64
	for i := 0; i < 40; i++ {
		counts = append(counts, []float64{1, float64(rng.Intn(100)), float64(rng.Intn(100))})
	}
	model, err := MergeComponents(counts)
	if err != nil {
		t.Fatal(err)
	}
	if len(model.Components) != 3 {
		t.Errorf("components = %d, want 3 (two independent + constant)", len(model.Components))
	}
}

func TestMergeComponentsErrors(t *testing.T) {
	if _, err := MergeComponents(nil); err == nil {
		t.Error("empty profile must fail")
	}
	if _, err := MergeComponents([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("ragged matrix must fail")
	}
}

// Property: affine merging is sound — every member's counts are exactly
// Alpha*rep + Beta across the whole profile.
func TestQuickMergeSoundness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nInv := 8 + rng.Intn(40)
		nCtr := 2 + rng.Intn(6)
		counts := make([][]float64, nInv)
		for i := range counts {
			row := make([]float64, nCtr)
			row[0] = 1
			for j := 1; j < nCtr; j++ {
				switch j % 3 {
				case 0:
					row[j] = 3*row[j-1] + 2 // affine on previous
				case 1:
					row[j] = float64(rng.Intn(50))
				case 2:
					row[j] = 5 // constant
				}
			}
			counts[i] = row
		}
		model, err := MergeComponents(counts)
		if err != nil {
			return false
		}
		for _, comp := range model.Components {
			if comp.Constant {
				continue
			}
			for _, m := range comp.Members {
				for _, row := range counts {
					want := m.Alpha*row[comp.Rep] + m.Beta
					if diff := row[m.Counter] - want; diff > 1e-6 || diff < -1e-6 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
