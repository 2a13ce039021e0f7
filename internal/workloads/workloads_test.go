package workloads

import (
	"testing"

	"peak/internal/bench"
	"peak/internal/core"
	"peak/internal/machine"
	"peak/internal/opt"
	"peak/internal/profiling"
	"peak/internal/vcache"
)

// paperMethods is Table 1's "Rating Approach" column.
var paperMethods = map[string]core.Method{
	"BZIP2":   core.MethodRBR,
	"CRAFTY":  core.MethodRBR,
	"GZIP":    core.MethodRBR,
	"MCF":     core.MethodRBR,
	"TWOLF":   core.MethodRBR,
	"VORTEX":  core.MethodRBR,
	"APPLU":   core.MethodCBR,
	"APSI":    core.MethodCBR,
	"ART":     core.MethodRBR,
	"MGRID":   core.MethodMBR,
	"EQUAKE":  core.MethodCBR,
	"MESA":    core.MethodRBR,
	"SWIM":    core.MethodCBR,
	"WUPWISE": core.MethodCBR,
}

// paperContexts is the number of CBR context rows Table 1 shows.
var paperContexts = map[string]int{
	"APPLU": 1, "APSI": 3, "EQUAKE": 1, "SWIM": 1, "WUPWISE": 2,
}

func TestBenchmarkInventory(t *testing.T) {
	bs := All()
	if len(bs) != 14 {
		t.Fatalf("got %d benchmarks, want 14", len(bs))
	}
	seen := map[string]bool{}
	for _, b := range bs {
		if seen[b.Name] {
			t.Errorf("duplicate benchmark %s", b.Name)
		}
		seen[b.Name] = true
		if b.Prog.Funcs[b.TSName] != b.TS {
			t.Errorf("%s: TS not registered under TSName %q", b.Name, b.TSName)
		}
		if b.Train.NumInvocations <= 0 || b.Ref.NumInvocations <= b.Train.NumInvocations/4 {
			t.Errorf("%s: suspicious dataset sizes train=%d ref=%d",
				b.Name, b.Train.NumInvocations, b.Ref.NumInvocations)
		}
		if _, ok := ByName(b.Name); !ok {
			t.Errorf("ByName(%s) failed", b.Name)
		}
	}
}

// TestByNameMatchesAll checks that ByName, which builds only the named
// benchmark, builds the same program as All for every name, a fresh one on
// each call, and rejects an unknown name; Names lists All's names.
func TestByNameMatchesAll(t *testing.T) {
	names := Names()
	for i, want := range All() {
		if names[i] != want.Name {
			t.Errorf("Names()[%d] = %s, want %s", i, names[i], want.Name)
		}
		got, ok := ByName(want.Name)
		if !ok {
			t.Fatalf("ByName(%s) failed", want.Name)
		}
		if got.Name != want.Name || got.TSName != want.TSName {
			t.Errorf("ByName(%s) = %s/%s, want %s/%s", want.Name, got.Name, got.TSName, want.Name, want.TSName)
		}
		if g, w := vcache.ProgramKey(got.Prog), vcache.ProgramKey(want.Prog); g != w {
			t.Errorf("ByName(%s): program key %x, want %x", want.Name, g, w)
		}
		if again, _ := ByName(want.Name); again == got || again.Prog == got.Prog {
			t.Errorf("ByName(%s) returned a shared benchmark", want.Name)
		}
	}
	if b, ok := ByName("NOSUCH"); ok || b != nil {
		t.Errorf("ByName(NOSUCH) = %v, %v; want nil, false", b, ok)
	}
}

func profileOf(t *testing.T, b *bench.Benchmark, m *machine.Machine) *profiling.Profile {
	t.Helper()
	p, err := profiling.Run(b, b.Train, m)
	if err != nil {
		t.Fatalf("%s on %s: profile: %v", b.Name, m.Name, err)
	}
	return p
}

// TestConsultantMatchesTable1 checks that the Rating Approach Consultant
// reproduces the paper's Table-1 method choice for every benchmark on both
// machines, including the per-section context counts.
func TestConsultantMatchesTable1(t *testing.T) {
	cfg := core.DefaultConfig()
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			for _, m := range []*machine.Machine{machine.SPARCII(), machine.PentiumIV()} {
				p := profileOf(t, b, m)
				app := core.Consult(p, &cfg)
				want := paperMethods[b.Name]
				if got := app.Chosen(); got != want {
					t.Errorf("%s on %s: consultant chose %s, want %s (CBR: %q, MBR: %q; contexts=%d dominantShare=%.2f modelComponents=%v modelVar=%.3f)",
						b.Name, m.Name, got, want, app.CBRReason, app.MBRReason,
						p.NumContexts(), p.DominantShare(), components(p), p.ModelVar)
				}
				if want == core.MethodCBR {
					if wantCtx := paperContexts[b.Name]; wantCtx > 0 && p.NumContexts() != wantCtx {
						t.Errorf("%s on %s: %d contexts, want %d", b.Name, m.Name, p.NumContexts(), wantCtx)
					}
				}
				if !app.Has(core.MethodRBR) {
					t.Errorf("%s on %s: RBR must always be applicable", b.Name, m.Name)
				}
			}
		})
	}
}

func components(p *profiling.Profile) int {
	if p.Model == nil {
		return -1
	}
	return len(p.Model.Components)
}

// TestVersionsRunClean compiles every benchmark's TS at -O0 and -O3 on both
// machines and runs the full train dataset, checking for runtime errors.
// On the SPARC-II-like machine (large register file) -O3 must win; on the
// Pentium-IV-like machine -O3 may lose moderately — "potential performance
// degradation from applying the 'highest' optimization level is not
// uncommon" (§1) is the paper's premise and exactly what PEAK tunes away.
func TestVersionsRunClean(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			for _, m := range []*machine.Machine{machine.SPARCII(), machine.PentiumIV()} {
				t0, _, err := core.MeasurePerformanceStored(b, b.Train, m, opt.O0(), nil, nil)
				if err != nil {
					t.Fatalf("%s on %s -O0: %v", b.Name, m.Name, err)
				}
				t3, _, err := core.MeasurePerformanceStored(b, b.Train, m, opt.O3(), nil, nil)
				if err != nil {
					t.Fatalf("%s on %s -O3: %v", b.Name, m.Name, err)
				}
				if t3 <= 0 || t0 <= 0 {
					t.Fatalf("%s on %s: non-positive cycles (O0=%d O3=%d)", b.Name, m.Name, t0, t3)
				}
				if m.Name == "sparc2" && t3 >= t0 {
					t.Errorf("%s on %s: -O3 (%d cycles) not faster than -O0 (%d cycles)",
						b.Name, m.Name, t3, t0)
				}
				if t3 > 2*t0 {
					t.Errorf("%s on %s: -O3 (%d cycles) more than 2x slower than -O0 (%d cycles)",
						b.Name, m.Name, t3, t0)
				}
			}
		})
	}
}
