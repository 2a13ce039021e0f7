package vcache

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"testing"

	"peak/internal/ir"
	"peak/internal/irbuild"
	"peak/internal/machine"
	"peak/internal/opt"
	"peak/internal/regalloc"
	"peak/internal/sim"
)

// callerVersion compiles a function whose two callees the inliner
// refuses (one loops, one stores), so the version has params, call
// instructions with arguments and a Callees map.
func callerVersion(t testing.TB) *sim.Version {
	t.Helper()
	prog := ir.NewProgram()
	prog.AddArray("ia", ir.F64, 8)
	loopy := irbuild.NewFunc("loopy")
	loopy.ScalarParam("n", ir.I64).Local("s", ir.F64)
	prog.AddFunc(loopy.Body(
		loopy.For("i", loopy.I(0), loopy.V("n"), 1,
			loopy.Set(loopy.V("s"), loopy.FAdd(loopy.V("s"), loopy.F(1)))),
		loopy.Ret(loopy.V("s")),
	))
	storer := irbuild.NewFunc("storer")
	storer.ScalarParam("x", ir.F64)
	prog.AddFunc(storer.Body(
		storer.Set(storer.At("ia", storer.I(0)), storer.V("x")),
		storer.Ret(storer.V("x")),
	))
	b := irbuild.NewFunc("f")
	b.ScalarParam("n", ir.I64).Local("r", ir.F64)
	fn := b.Body(
		b.Set(b.V("r"), b.Call("loopy", b.V("n"))),
		b.Set(b.V("r"), b.FAdd(b.V("r"), b.Call("storer", b.V("r")))),
		b.Ret(b.V("r")),
	)
	prog.AddFunc(fn)
	v, err := opt.Compile(prog, fn, opt.O3(), machine.SPARCII())
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Callees) != 2 {
		t.Fatalf("fixture compiled with %d callees, want 2", len(v.Callees))
	}
	return v
}

// fieldEncoded lists every field of the structs a compiled version is
// built from: true for a field the canonical encoding carries, false for
// one only the compiler reads. Struct-typed fields are encoded through
// their own entries.
var fieldEncoded = map[reflect.Type]map[string]bool{
	reflect.TypeOf(sim.Version{}): {"LF": true, "Alloc": true, "Mods": true, "CodeSize": true,
		"NumOrigins": true, "Callees": true, "Label": false,
		// Built by Freeze from the encoded blocks.
		"blockIndex": false},
	reflect.TypeOf(ir.LFunc{}): {"Name": true, "Params": true, "ParamRegs": true, "Blocks": true,
		"NumRegs": true, "NumCounters": true, "FloatReg": false},
	reflect.TypeOf(ir.Param{}): {"Name": true, "Typ": true, "IsArray": true},
	reflect.TypeOf(ir.Block{}): {"ID": true, "Instrs": true, "Term": true, "Origin": true,
		"LoopDepth": false},
	reflect.TypeOf(ir.Instr{}): {"Op": true, "Dst": true, "A": true, "B": true, "Src": true,
		"Imm": true, "FImm": true, "Arr": true, "Fn": true, "CallArgs": true},
	reflect.TypeOf(ir.Terminator{}): {"Kind": true, "Cond": true, "Then": true, "Else": true,
		"Val": true, "Likely": true},
	reflect.TypeOf(regalloc.Result{}): {"Spilled": true, "NumSpilled": false,
		"IntPressure": false, "FloatPressure": false},
	reflect.TypeOf(sim.CostMods{}): {"TakenBranchFactor": true, "CallOverheadFactor": true,
		"CodeSizeExtra": true, "StaticPredict": true},
}

// instances returns, for each type in fieldEncoded, one addressable
// instance of it inside v.
func instances(t *testing.T, v *sim.Version) map[reflect.Type]reflect.Value {
	t.Helper()
	for _, b := range v.LF.Blocks {
		for i := range b.Instrs {
			if in := &b.Instrs[i]; in.Op == ir.LCall && len(in.CallArgs) > 0 {
				return map[reflect.Type]reflect.Value{
					reflect.TypeOf(sim.Version{}):     reflect.ValueOf(v).Elem(),
					reflect.TypeOf(ir.LFunc{}):        reflect.ValueOf(v.LF).Elem(),
					reflect.TypeOf(ir.Param{}):        reflect.ValueOf(&v.LF.Params[0]).Elem(),
					reflect.TypeOf(ir.Block{}):        reflect.ValueOf(b).Elem(),
					reflect.TypeOf(ir.Instr{}):        reflect.ValueOf(in).Elem(),
					reflect.TypeOf(ir.Terminator{}):   reflect.ValueOf(&b.Term).Elem(),
					reflect.TypeOf(regalloc.Result{}): reflect.ValueOf(&v.Alloc).Elem(),
					reflect.TypeOf(sim.CostMods{}):    reflect.ValueOf(&v.Mods).Elem(),
				}
			}
		}
	}
	t.Fatal("fixture has no call with arguments")
	return nil
}

// mutate changes f's value: scalars step, slices of scalars change their
// first element, other slices lose their last one, and a map gains an
// entry repeating one it has.
func mutate(t *testing.T, f reflect.Value) {
	t.Helper()
	switch f.Kind() {
	case reflect.Int, reflect.Int64:
		f.SetInt(f.Int() + 1)
	case reflect.Float64:
		f.SetFloat(f.Float() + 0.5)
	case reflect.Bool:
		f.SetBool(!f.Bool())
	case reflect.String:
		f.SetString(f.String() + "x")
	case reflect.Slice:
		if f.Len() == 0 {
			t.Fatalf("fixture leaves a %s empty", f.Type())
		}
		switch f.Type().Elem().Kind() {
		case reflect.Struct, reflect.Pointer:
			f.Set(f.Slice(0, f.Len()-1))
		default:
			mutate(t, f.Index(0))
		}
	case reflect.Map:
		f.SetMapIndex(reflect.ValueOf("zz_probe"), f.MapIndex(f.MapKeys()[0]))
	default:
		t.Fatalf("no mutation for a %s", f.Type())
	}
}

// TestFingerprintFieldCoverage walks, by reflection, every field of a
// compiled version and of the structs it is built from. Changing an
// encoded field must change Fingerprint128 and changing a compile-only
// one (the Label among them) must not; a field fieldEncoded does not list
// fails the test, so a new field cannot silently alias different code.
func TestFingerprintFieldCoverage(t *testing.T) {
	base := Fingerprint128(callerVersion(t))
	if base != Fingerprint128(callerVersion(t)) {
		t.Fatal("two compilations of the fixture fingerprint differently")
	}
	for typ, fields := range fieldEncoded {
		for name := range fields {
			if _, ok := typ.FieldByName(name); !ok {
				t.Errorf("fieldEncoded lists %s.%s, which does not exist", typ, name)
			}
		}
		for i := 0; i < typ.NumField(); i++ {
			sf := typ.Field(i)
			encoded, ok := fields[sf.Name]
			switch {
			case !ok:
				t.Errorf("%s.%s is neither encoded nor listed as compile-only", typ, sf.Name)
				continue
			case !sf.IsExported():
				continue
			}
			st := sf.Type
			if st.Kind() == reflect.Pointer {
				st = st.Elem()
			}
			if st.Kind() == reflect.Struct {
				if _, listed := fieldEncoded[st]; !listed || !encoded {
					t.Errorf("%s.%s: struct field must be encoded and its type listed", typ, sf.Name)
				}
				continue
			}
			v := callerVersion(t)
			mutate(t, instances(t, v)[typ].Field(i))
			if changed := Fingerprint128(v) != base; changed != encoded {
				t.Errorf("changing %s.%s changed the fingerprint: %t, want %t", typ, sf.Name, changed, encoded)
			}
		}
	}
}

// FuzzVersionCodec decodes a run of canonical bodies, each linked to
// callees decoded earlier in the run. Arbitrary bytes must never panic;
// every body the decoder accepts must re-encode to exactly the bytes it
// was read from and must freeze (build its block index) as the store
// freezes what it loads, and once its callees are linked its fingerprint
// must be Fingerprint128 of the decoded version.
func FuzzVersionCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		linked := map[FP128]*sim.Version{}
		for len(d.buf) > 0 {
			start := d.buf
			v, refs, fp := d.Version()
			if d.failed {
				return
			}
			var e Encoder
			e.body(v, refs)
			if !bytes.Equal(e.Buf, start[:len(start)-len(d.buf)]) {
				t.Fatalf("accepted body re-encodes differently")
			}
			v.Freeze()
			complete := true
			for _, r := range refs {
				c, ok := linked[r.FP]
				if !ok {
					complete = false
					break
				}
				if v.Callees == nil {
					v.Callees = map[string]*sim.Version{}
				}
				v.Callees[r.Name] = c
			}
			if !complete {
				continue
			}
			if got := Fingerprint128(v); got != fp {
				t.Fatalf("decoded body fingerprints as %s, read as %s", got, fp)
			}
			linked[fp] = v
		}
	})
}

// FuzzSum128 checks sum128, which multiplies runs of zero bytes in at
// once, against hash/fnv's byte-at-a-time FNV-1a-128. The seeds cover
// zero runs of every length up to 20 at every offset from a word start,
// a trailing short run, and a compiled body's encoding.
func FuzzSum128(f *testing.F) {
	for n := 0; n <= 20; n++ {
		for off := 0; off < 8; off++ {
			b := bytes.Repeat([]byte{7}, off)
			b = append(b, make([]byte, n)...)
			f.Add(append(b, 9))
			f.Add(b)
		}
	}
	var e Encoder
	e.Version(callerVersion(f))
	f.Add(e.Buf)
	f.Fuzz(func(t *testing.T, data []byte) {
		h := fnv.New128a()
		h.Write(data)
		sum := h.Sum(nil)
		want := FP128{Hi: binary.BigEndian.Uint64(sum), Lo: binary.BigEndian.Uint64(sum[8:])}
		if got := sum128(data); got != want {
			t.Fatalf("sum128(%x) = %s, want %s", data, got, want)
		}
	})
}

// decodeErr encodes v and decodes it back, returning the decoder's verdict.
func decodeErr(v *sim.Version) error {
	var e Encoder
	e.Version(v)
	d := NewDecoder(e.Buf)
	d.Version()
	return d.End()
}

// TestDecoderRejectsUnindexableBlocks: a body whose blocks the simulator
// could not index fails the decoder — negative, repeated or oversized
// block IDs and jump or branch targets no block has — while the compiled
// body, and one renumbered up to exactly maxBlockID, decode.
func TestDecoderRejectsUnindexableBlocks(t *testing.T) {
	loop := func() *sim.Version {
		v := callerVersion(t).Callees["loopy"]
		if len(v.LF.Blocks) < 2 {
			t.Fatal("fixture loop compiled to a single block")
		}
		return v
	}
	term := func(v *sim.Version, kind ir.TermKind) *ir.Terminator {
		for _, b := range v.LF.Blocks {
			if b.Term.Kind == kind {
				return &b.Term
			}
		}
		t.Fatalf("fixture has no terminator of kind %d", kind)
		return nil
	}
	if err := decodeErr(loop()); err != nil {
		t.Fatalf("compiled body rejected: %v", err)
	}
	// Renumber the last block to maxBlockID, retargeting its predecessors.
	v := loop()
	last := v.LF.Blocks[len(v.LF.Blocks)-1]
	for _, b := range v.LF.Blocks {
		if b.Term.Then == last.ID {
			b.Term.Then = maxBlockID
		}
		if b.Term.Kind == ir.TermBranch && b.Term.Else == last.ID {
			b.Term.Else = maxBlockID
		}
	}
	last.ID = maxBlockID
	if err := decodeErr(v); err != nil {
		t.Fatalf("body with block ID maxBlockID rejected: %v", err)
	}
	last.ID = maxBlockID + 1
	if decodeErr(v) == nil {
		t.Error("body with block ID maxBlockID+1 accepted")
	}

	for name, forge := range map[string]func(v *sim.Version){
		"negative ID":        func(v *sim.Version) { v.LF.Blocks[0].ID = -5 },
		"duplicate ID":       func(v *sim.Version) { v.LF.Blocks[1].ID = v.LF.Blocks[0].ID },
		"jump to no block":   func(v *sim.Version) { term(v, ir.TermJump).Then = 999 },
		"branch to no block": func(v *sim.Version) { term(v, ir.TermBranch).Else = -1 },
		"huge ID":            func(v *sim.Version) { v.LF.Blocks[0].ID = 1 << 40 },
	} {
		v := loop()
		forge(v)
		if decodeErr(v) == nil {
			t.Errorf("%s: forged body accepted", name)
		}
	}
}
