// Package workloads defines the 14 benchmark kernels mirroring the tuning
// sections of the paper's Table 1 (SPEC CPU 2000). Each kernel reproduces
// the *shape* that drives rating-method applicability — regular vs
// irregular control flow, context structure, component structure,
// invocation counts — rather than the exact SPEC computation (DESIGN.md §2).
//
// Invocation counts are scaled down from the paper's (column 4 of Table 1,
// recorded in Benchmark.PaperInvocations); relative magnitudes between
// benchmarks are preserved where practical.
package workloads

import (
	"math/rand"
	"sort"

	"peak/internal/bench"
	"peak/internal/sim"
)

// table lists every benchmark's name and constructor in the paper's
// Table-1 order (integer codes first, then floating point).
var table = []struct {
	name  string
	build func() *bench.Benchmark
}{
	{"BZIP2", BZIP2}, {"CRAFTY", CRAFTY}, {"GZIP", GZIP}, {"MCF", MCF},
	{"TWOLF", TWOLF}, {"VORTEX", VORTEX},
	{"APPLU", APPLU}, {"APSI", APSI}, {"ART", ART}, {"MGRID", MGRID},
	{"EQUAKE", EQUAKE}, {"MESA", MESA}, {"SWIM", SWIM}, {"WUPWISE", WUPWISE},
}

// All returns every benchmark, in Table-1 order.
func All() []*bench.Benchmark {
	bs := make([]*bench.Benchmark, len(table))
	for i, t := range table {
		bs[i] = t.build()
	}
	return bs
}

// ByName returns the benchmark with the given (case-sensitive) name. It
// builds only that benchmark, and a fresh one on every call, so callers
// may modify what they get.
func ByName(name string) (*bench.Benchmark, bool) {
	for _, t := range table {
		if t.name == name {
			return t.build(), true
		}
	}
	return nil, false
}

// Names lists all benchmark names in Table-1 order.
func Names() []string {
	names := make([]string, len(table))
	for i, t := range table {
		names[i] = t.name
	}
	return names
}

// Figure7Set returns the four benchmarks of the paper's Figure-7
// performance experiments: SWIM, MGRID, ART and EQUAKE.
func Figure7Set() []*bench.Benchmark {
	return []*bench.Benchmark{SWIM(), MGRID(), ART(), EQUAKE()}
}

// sortedNames returns map keys in deterministic order (helper for tests).
func sortedNames(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// fillUniform fills the named array with uniform values in [lo, hi).
func fillUniform(mem *sim.Memory, name string, rng *rand.Rand, lo, hi float64) {
	d := mem.Get(name).Data
	for i := range d {
		d[i] = lo + rng.Float64()*(hi-lo)
	}
}

// fillInts fills the named array with integers in [0, n).
func fillInts(mem *sim.Memory, name string, rng *rand.Rand, n int) {
	d := mem.Get(name).Data
	for i := range d {
		d[i] = float64(rng.Intn(n))
	}
}
