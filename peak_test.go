package peak

import (
	"reflect"
	"strings"
	"testing"
)

func TestFacadeBasics(t *testing.T) {
	if len(Benchmarks()) != 14 {
		t.Fatalf("benchmarks = %d, want 14", len(Benchmarks()))
	}
	names := BenchmarkNames()
	if len(names) != 14 || names[0] != "BZIP2" {
		t.Errorf("names = %v", names)
	}
	for _, n := range names {
		b, ok := BenchmarkByName(n)
		if !ok {
			t.Fatalf("BenchmarkByName(%s) failed", n)
		}
		if err := Validate(b); err != nil {
			t.Errorf("Validate(%s): %v", n, err)
		}
	}
	if _, ok := BenchmarkByName("NOPE"); ok {
		t.Error("ghost benchmark found")
	}
	if err := Validate(nil); err == nil {
		t.Error("Validate(nil) passed")
	}

	if SPARCII().Name != "sparc2" || PentiumIV().Name != "p4" {
		t.Error("machine constructors broken")
	}
	if m, ok := MachineByName("p4"); !ok || m.Name != "p4" {
		t.Error("MachineByName broken")
	}

	if O3().Count() != 38 || O0().Count() != 0 {
		t.Error("flag sets broken")
	}
	fs, err := ParseFlags("-fgcse -fstrict-aliasing")
	if err != nil || fs.Count() != 2 {
		t.Errorf("ParseFlags: %v, %v", fs, err)
	}
	if m, ok := ParseMethodName("RBR"); !ok || m != RBR {
		t.Error("ParseMethodName broken")
	}
	if CBR.String() != "CBR" || WHL.String() != "WHL" {
		t.Error("method constants broken")
	}
}

func TestFacadePipeline(t *testing.T) {
	// End-to-end through the public API on the cheapest benchmark.
	b, _ := BenchmarkByName("EQUAKE")
	m := SPARCII()
	prof, err := ProfileBenchmark(b, nil, m)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	app := Consult(prof, &cfg)
	if app.Chosen() != CBR {
		t.Errorf("EQUAKE consultant chose %s, want CBR", app.Chosen())
	}
	method := CBR
	res, err := Tune(b, m, b.Train, nil, &method, &cfg, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MethodUsed != CBR {
		t.Errorf("method used = %s", res.MethodUsed)
	}
	base, prog, err := Measure(b, b.Ref, m, O3())
	if err != nil {
		t.Fatal(err)
	}
	if prog <= base {
		t.Error("program cycles must include non-TS time")
	}
	tuned, _, err := Measure(b, b.Ref, m, res.Best)
	if err != nil {
		t.Fatal(err)
	}
	if Improvement(base, tuned) < -0.01 {
		t.Errorf("tuned version slower than -O3: %d vs %d", tuned, base)
	}
	if !strings.Contains(res.Best.String(), "-f") && res.Best != O3() {
		t.Errorf("odd flag rendering: %s", res.Best)
	}
}

// TestPoolDeterminism is the parallel-tuning acceptance test: a full tune
// of one floating-point and one integer workload must produce a TuneResult
// that is identical — Best flags, TuningCycles, Invocations and all other
// ledger fields — whether the candidate ratings run on one worker or
// eight. This is the bit-identity contract of internal/sched
// (per-job derived seeds + index-ordered reduction); see ARCHITECTURE.md.
func TestPoolDeterminism(t *testing.T) {
	for _, name := range []string{"SWIM", "MCF"} {
		b, ok := BenchmarkByName(name)
		if !ok {
			t.Fatalf("benchmark %s missing", name)
		}
		m := PentiumIV()
		serial, err := Tune(b, m, nil, nil, nil, nil, Env{Pool: NewPool(1)})
		if err != nil {
			t.Fatalf("%s workers=1: %v", name, err)
		}
		parallel, err := Tune(b, m, nil, nil, nil, nil, Env{Pool: NewPool(8)})
		if err != nil {
			t.Fatalf("%s workers=8: %v", name, err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("%s: workers=8 diverged from workers=1:\n  serial:   %+v\n  parallel: %+v",
				name, serial, parallel)
		}
		if serial.Invocations == 0 || serial.TuningCycles == 0 {
			t.Errorf("%s: empty ledger %+v", name, serial)
		}
	}
}
