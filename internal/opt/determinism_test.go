package opt_test

import (
	"math/rand"
	"testing"

	"peak/internal/machine"
	"peak/internal/opt"
	"peak/internal/vcache"
	"peak/internal/workloads"
)

// TestCompileDeterministic: compiling a tuning section again under the same
// flags yields the same code, down to register numbers. The compile cache,
// the store's measurement memo and the tuner's code-fingerprint dedup all
// key on vcache.Fingerprint128, and the server reuses profiles across jobs
// on the assumption that compilation is a pure function of its inputs.
// Each benchmark compiles under -O3 and a dozen seeded flag subsets that
// keep rename-registers, the pass that hands out fresh register numbers.
func TestCompileDeterministic(t *testing.T) {
	const compiles = 6
	rng := rand.New(rand.NewSource(1))
	sets := []opt.FlagSet{opt.O3()}
	for len(sets) < 13 {
		sets = append(sets, (opt.FlagSet(rng.Uint64()) & opt.O3()).With(opt.FRenameRegisters))
	}
	for _, name := range []string{"sparc2", "p4"} {
		m, ok := machine.ByName(name)
		if !ok {
			t.Fatalf("unknown machine %q", name)
		}
		for _, b := range workloads.All() {
			for _, flags := range sets {
				var first vcache.FP128
				for i := 0; i < compiles; i++ {
					v, err := opt.Compile(b.Prog, b.TS, flags, m)
					if err != nil {
						t.Fatalf("%s/%s [%s]: %v", b.Name, name, flags, err)
					}
					v.Freeze()
					fp := vcache.Fingerprint128(v)
					if i == 0 {
						first = fp
					} else if fp != first {
						t.Errorf("%s/%s [%s]: compile %d has fingerprint %v, compile 0 had %v",
							b.Name, name, flags, i, fp, first)
						break
					}
				}
			}
		}
	}
}
