package opt_test

import (
	"testing"

	"peak/internal/sim"
	"peak/internal/vcache"
)

// TestCompiledBodiesDecode: every body the compiler emits over the frozen
// compile set, callees included, decodes from its canonical encoding to
// its own fingerprint. The decoder rejects bodies the simulator could not
// index (bad or oversized block IDs, dangling jump targets); this checks
// that no real compiler output falls foul of those limits, so the store
// never drops a genuine body.
func TestCompiledBodiesDecode(t *testing.T) {
	seen := map[vcache.FP128]bool{}
	var check func(label string, v *sim.Version)
	check = func(label string, v *sim.Version) {
		fp := vcache.Fingerprint128(v)
		if seen[fp] {
			return
		}
		seen[fp] = true
		var e vcache.Encoder
		e.Version(v)
		d := vcache.NewDecoder(e.Buf)
		_, _, got := d.Version()
		if err := d.End(); err != nil || got != fp {
			t.Errorf("%s: body of %s does not decode to its fingerprint (err %v)", label, v.LF.Name, err)
		}
		for _, c := range v.Callees {
			check(label, c)
		}
	}
	frozenCompiles(t, check)
}
