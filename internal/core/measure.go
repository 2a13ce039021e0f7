package core

import (
	"fmt"
	"math/rand"

	"peak/internal/bench"
	"peak/internal/machine"
	"peak/internal/opt"
	"peak/internal/sim"
	"peak/internal/vcache"
)

// resolveMeasureVersion compiles the deployment version of the TS under
// flags, through the cache when one is given, and returns it with its full
// content fingerprint (the persistent store's measurement memo key).
func resolveMeasureVersion(b *bench.Benchmark, m *machine.Machine, flags opt.FlagSet,
	cache *vcache.Cache) (*sim.Version, vcache.FP128, error) {
	if cache != nil {
		r, err := cache.Resolve(
			vcache.Key{Prog: vcache.ProgramKey(b.Prog), Fn: b.TS.Name, Flags: flags, Machine: m.Name},
			func() (*sim.Version, error) { return opt.Compile(b.Prog, b.TS, flags, m) })
		if err != nil {
			return nil, vcache.FP128{}, err
		}
		return r.V, r.FP, nil
	}
	v, err := opt.Compile(b.Prog, b.TS, flags, m)
	if err != nil {
		return nil, vcache.FP128{}, err
	}
	v.Freeze()
	return v, vcache.Fingerprint128(v), nil
}

// runMeasurement executes the resolved version over the dataset and sums
// the deterministic TS cycles (the simulation half of
// MeasurePerformanceStored).
func runMeasurement(b *bench.Benchmark, ds *bench.Dataset, m *machine.Machine,
	flags opt.FlagSet, v *sim.Version) (tsCycles, programCycles int64, err error) {
	rng := rand.New(rand.NewSource(b.Seed(31)))
	mem := sim.NewMemory(b.Prog)
	if ds.Setup != nil {
		ds.Setup(mem, rng)
	}
	runner := sim.NewRunner(m, mem, b.Seed(37))
	for i := 0; i < ds.NumInvocations; i++ {
		args := ds.Args(i, mem, rng)
		_, st, err := runner.Run(v, args)
		if err != nil {
			return 0, 0, fmt.Errorf("measure %s [%s] invocation %d: %w", b.Name, flags, i, err)
		}
		tsCycles += st.Cycles
	}
	return tsCycles, tsCycles + b.NonTSCycles, nil
}

// Improvement returns the relative performance improvement of tuned over
// base given their measured times (positive = tuned faster), the paper's
// "performance improvement over the version compiled under O3".
func Improvement(baseCycles, tunedCycles int64) float64 {
	if tunedCycles == 0 {
		return 0
	}
	return float64(baseCycles)/float64(tunedCycles) - 1
}
