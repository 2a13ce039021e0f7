package opt_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"peak/internal/machine"
	"peak/internal/opt"
	"peak/internal/sim"
	"peak/internal/vcache"
	"peak/internal/workloads"
)

// frozenGolden holds one line per compile of frozenCompiles: benchmark,
// machine, flag-set label, flag-set bits and the version's Fingerprint128.
var frozenGolden = filepath.Join("testdata", "compiled_code.golden")

// frozenSet is one flag set of the frozen compile set with a short label.
type frozenSet struct {
	label string
	flags opt.FlagSet
}

// frozenSets returns -O0, -O3, every -O3-minus-one set and the twelve
// seeded subsets TestCompileDeterministic compiles.
func frozenSets() []frozenSet {
	sets := []frozenSet{{"O0", opt.O0()}, {"O3", opt.O3()}}
	for _, f := range opt.AllFlags() {
		sets = append(sets, frozenSet{"O3-" + f.String(), opt.O3().Without(f)})
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 12; i++ {
		flags := (opt.FlagSet(rng.Uint64()) & opt.O3()).With(opt.FRenameRegisters)
		sets = append(sets, frozenSet{fmt.Sprintf("seed%d", i), flags})
	}
	return sets
}

// frozenCompiles compiles every workload on both machines under every
// frozen set and calls visit with the golden line's label and the frozen
// version.
func frozenCompiles(t *testing.T, visit func(label string, v *sim.Version)) {
	t.Helper()
	sets := frozenSets()
	for _, name := range []string{"sparc2", "p4"} {
		m, ok := machine.ByName(name)
		if !ok {
			t.Fatalf("unknown machine %q", name)
		}
		for _, b := range workloads.All() {
			for _, s := range sets {
				v, err := opt.Compile(b.Prog, b.TS, s.flags, m)
				if err != nil {
					t.Fatalf("%s/%s [%s]: %v", b.Name, name, s.label, err)
				}
				v.Freeze()
				visit(fmt.Sprintf("%s %s %s %010x", b.Name, name, s.label, uint64(s.flags)), v)
			}
		}
	}
}

// TestCompiledCodeFrozen pins the optimizer's output: every compile of the
// frozen set must fingerprint exactly as recorded in the golden file. The
// compile cache, the store and the tuner's dedup all key on the
// fingerprint, so a refactor of the passes must leave it unchanged; a
// deliberate change to generated code regenerates the golden.
func TestCompiledCodeFrozen(t *testing.T) {
	raw, err := os.ReadFile(frozenGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	var got []string
	frozenCompiles(t, func(label string, v *sim.Version) {
		fp := vcache.Fingerprint128(v)
		got = append(got, fmt.Sprintf("%s %016x%016x", label, fp.Hi, fp.Lo))
	})
	if len(got) != len(want) {
		t.Fatalf("%d compiles, golden has %d lines", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad < 10 {
				t.Errorf("compile %d:\n got  %s\n want %s", i, got[i], want[i])
			}
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d compiles differ from %s", bad, len(got), frozenGolden)
	}
}
