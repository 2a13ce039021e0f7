package core

import (
	"testing"

	"peak/internal/machine"
	"peak/internal/opt"
	"peak/internal/profiling"
	"peak/internal/sched"
	"peak/internal/vcache"
	"peak/internal/workloads"
)

// BenchmarkRoundPrecompile times one Iterative Elimination round's
// precompile stage on a 2-lane pool with a fresh compile cache: ART's
// first round on p4, the -O3 base and all 38 candidate removals prefetched
// across the pool, then resolved serially in candidate order as rateRound
// resolves them. Engine setup is outside the timer.
func BenchmarkRoundPrecompile(b *testing.B) {
	bm, _ := workloads.ByName("ART")
	m := machine.PentiumIV()
	prof, err := profiling.Run(bm, bm.Train, m)
	if err != nil {
		b.Fatal(err)
	}
	pool := sched.New(2)
	sets := roundSets(opt.O3(), opt.AllFlags())
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tu := &Tuner{Bench: bm, Mach: m, Dataset: bm.Train, Cfg: DefaultConfig(),
			Profile: prof, Pool: pool, Cache: vcache.New()}
		e, err := tu.newEngine()
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		e.versions.prefetch(e.pool, sets)
		for _, fs := range sets {
			if _, _, err := e.versions.resolve(fs); err != nil {
				b.Fatal(err)
			}
		}
	}
}
