package profiling

import (
	"math/rand"
	"reflect"
	"testing"

	"peak/internal/bench"
	"peak/internal/ir"
	"peak/internal/irbuild"
	"peak/internal/machine"
	"peak/internal/sim"
	"peak/internal/workloads"
)

// twoContextBenchmark: control flow depends on params n (varying between
// two values) and lim (a run-time constant), and data arrays do not feed
// control flow.
func twoContextBenchmark() *bench.Benchmark {
	prog := ir.NewProgram()
	prog.AddArray("pa", ir.F64, 64)
	b := irbuild.NewFunc("ts")
	b.ScalarParam("n", ir.I64).ScalarParam("lim", ir.I64).Local("s", ir.F64)
	fn := b.Body(
		b.For("i", b.I(0), b.V("n"), 1,
			b.If(b.Lt(b.V("i"), b.V("lim")),
				b.Set(b.V("s"), b.FAdd(b.V("s"), b.At("pa", b.V("i")))),
			),
		),
		b.Ret(b.V("s")),
	)
	prog.AddFunc(fn)
	mkDS := func(name string, inv int) *bench.Dataset {
		return &bench.Dataset{
			Name: name, NumInvocations: inv,
			Setup: func(mem *sim.Memory, rng *rand.Rand) {
				d := mem.Get("pa").Data
				for i := range d {
					d[i] = rng.Float64()
				}
			},
			Args: func(i int, mem *sim.Memory, rng *rand.Rand) []float64 {
				n := 16
				if i%4 == 0 {
					n = 48
				}
				return []float64{float64(n), 60} // lim never changes
			},
		}
	}
	return &bench.Benchmark{
		Name: "TWOCTX", TSName: "ts", Class: bench.FP,
		Prog: prog, TS: fn,
		Train: mkDS("train", 400), Ref: mkDS("ref", 800),
		NonTSCycles: 10_000, PaperInvocations: "(test)",
	}
}

func TestProfileContexts(t *testing.T) {
	b := twoContextBenchmark()
	p, err := Run(b, b.Train, machine.SPARCII())
	if err != nil {
		t.Fatal(err)
	}
	if p.Invocations != 400 {
		t.Errorf("invocations = %d, want 400", p.Invocations)
	}
	if !p.ContextSet.Applicable || !p.ContextArraysConst {
		t.Fatalf("CBR should be applicable: %s", p.ContextSet.Reason)
	}
	// lim never varies: run-time-constant elimination must drop it,
	// leaving n as the single context variable with two values.
	if len(p.Vars) != 1 || p.Vars[0].Name != "n" {
		t.Errorf("context vars after constant elimination = %v, want [n]", p.Vars)
	}
	if p.NumContexts() != 2 {
		t.Errorf("contexts = %d, want 2", p.NumContexts())
	}
	// Dominant context by total time: n=16 has 300 invocations but n=48
	// is 3x the work per invocation with 100 invocations — close; just
	// check share consistency.
	if p.DominantShare() <= 0 || p.DominantShare() > 1 {
		t.Errorf("dominant share = %v", p.DominantShare())
	}
	if p.TotalTSCycles <= 0 || p.MeanCycles <= 0 {
		t.Error("timing not collected")
	}
	if p.Model == nil {
		t.Fatal("no component model")
	}
	if p.Effects == nil || p.ModifiedInputElems != 0 {
		// ts reads pa but never writes it: nothing to save for RBR.
		t.Errorf("ModifiedInputElems = %d, want 0", p.ModifiedInputElems)
	}
}

func TestProfileDetectsMutatedControlArrays(t *testing.T) {
	prog := ir.NewProgram()
	prog.AddArray("tab", ir.I64, 32)
	b := irbuild.NewFunc("ts")
	b.ScalarParam("k", ir.I64).Local("s", ir.I64)
	fn := b.Body(
		b.If(b.Gt(b.At("tab", b.V("k")), b.I(0)),
			b.Set(b.V("s"), b.I(1)),
		),
		b.Ret(b.V("s")),
	)
	prog.AddFunc(fn)
	ds := &bench.Dataset{
		Name: "train", NumInvocations: 200,
		Setup: func(mem *sim.Memory, rng *rand.Rand) {},
		Args: func(i int, mem *sim.Memory, rng *rand.Rand) []float64 {
			mem.Get("tab").Data[rng.Intn(32)] = float64(rng.Intn(3) - 1)
			return []float64{float64(rng.Intn(32))}
		},
	}
	bm := &bench.Benchmark{
		Name: "MUT", TSName: "ts", Class: bench.Int,
		Prog: prog, TS: fn, Train: ds, Ref: ds,
		NonTSCycles: 1000,
	}
	p, err := Run(bm, ds, machine.SPARCII())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.ContextSet.NeedConstArrays) == 0 {
		t.Fatal("tab should be a needed-constant array")
	}
	if p.ContextArraysConst {
		t.Error("mutated control array not detected")
	}
}

func TestCBRKeyMatchesProfileKeys(t *testing.T) {
	b := twoContextBenchmark()
	m := machine.SPARCII()
	p, err := Run(b, b.Train, m)
	if err != nil {
		t.Fatal(err)
	}
	mem := sim.NewMemory(b.Prog)
	key16 := p.CBRKeyFor(b, []float64{16, 60}, mem)
	key48 := p.CBRKeyFor(b, []float64{48, 60}, mem)
	if key16 == key48 {
		t.Error("distinct contexts produced identical keys")
	}
	if _, ok := p.Contexts[key16]; !ok {
		t.Errorf("runtime key %q not among profiled contexts %v", key16, keysOf(p))
	}
	if _, ok := p.Contexts[key48]; !ok {
		t.Errorf("runtime key %q not among profiled contexts", key48)
	}
}

func keysOf(p *Profile) []string {
	var out []string
	for k := range p.Contexts {
		out = append(out, k)
	}
	return out
}

// TestProfileRunDeterministic is the purity oracle behind the tuning
// server's profile reuse: Run is a function of (benchmark, dataset,
// machine) alone, so two runs on freshly built benchmarks must yield equal
// profiles for every benchmark on both machines.
func TestProfileRunDeterministic(t *testing.T) {
	for _, m := range []*machine.Machine{machine.SPARCII(), machine.PentiumIV()} {
		for _, name := range workloads.Names() {
			var profiles [2]*Profile
			for i := range profiles {
				b, _ := workloads.ByName(name)
				p, err := Run(b, b.Train, m)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, m.Name, err)
				}
				profiles[i] = p
			}
			if !reflect.DeepEqual(profiles[0], profiles[1]) {
				t.Errorf("%s/%s: two profile runs differ:\n%+v\n%+v", name, m.Name, profiles[0], profiles[1])
			}
		}
	}
}
