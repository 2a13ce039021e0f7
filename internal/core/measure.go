package core

import (
	"fmt"
	"math/rand"

	"peak/internal/bench"
	"peak/internal/machine"
	"peak/internal/opt"
	"peak/internal/sim"
)

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
