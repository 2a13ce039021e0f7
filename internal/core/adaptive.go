package core

import (
	"fmt"
	"math/rand"
	"sort"

	"peak/internal/bench"
	"peak/internal/machine"
	"peak/internal/opt"
	"peak/internal/profiling"
	"peak/internal/sim"
	"peak/internal/stats"
)

// AdaptiveTuner implements the paper's online, adaptive scenario (§6 and
// the ADAPT heritage of §4.2): the application is tuned *while in actual
// use*. Every invocation is production work; there is no separate tuning
// time. Per execution context, the tuner explores one-flag-off variants of
// "-O3" with CBR-style same-context windows, adopting a variant as the
// context's production version when its window mean beats the incumbent's
// — the paper's "best" and "experimental" versions dynamically swapped in
// and out (Figure 6).
//
// Exploration is a single greedy elimination pass per context (each flag
// tried once against the current incumbent), which bounds the online
// overhead; contexts the profile never saw are discovered and tuned on the
// fly, the case offline tuning cannot serve (§2.2: "an adaptive tuning
// scenario would make use of all versions").
//
// Each flag set compiles once per run, through the same version resolver
// as Tuner but never through a compile cache: a cache would alias a
// candidate whose code matches the incumbent's to one Version, and with
// it one set of branch-predictor state, changing what the run measures.
type AdaptiveTuner struct {
	Bench   *bench.Benchmark
	Mach    *machine.Machine
	Cfg     Config
	Profile *profiling.Profile

	// Window overrides Cfg.Window for the online samples (smaller windows
	// keep exploration overhead low); zero keeps Cfg.Window.
	Window int
}

// AdaptiveResult reports one adaptive production run.
type AdaptiveResult struct {
	// TotalCycles is the whole run, exploration included.
	TotalCycles int64
	// Invocations executed; ContextsSeen distinct runtime contexts.
	Invocations  int
	ContextsSeen int
	// Winners maps context keys to their adopted flag sets ("-O3" when
	// nothing beat the default).
	Winners map[string]opt.FlagSet
	// Adoptions counts how many times a context switched its production
	// version; VersionsTried counts explored variants across contexts.
	Adoptions     int
	VersionsTried int
	// Quarantined lists candidate flag sets whose compiled code failed
	// golden-output verification under fault injection (in discovery
	// order); their trials were abandoned without any production
	// invocation running the miscompiled version. CompileRetries counts
	// transient injected compile failures that were retried.
	Quarantined    []opt.FlagSet
	CompileRetries int
}

// ctxState is the per-context exploration state.
type ctxState struct {
	best      opt.FlagSet
	bestMean  float64 // rolling mean of the incumbent under this context
	bestBuf   []float64
	nextFlag  int // next flag index to try (one pass)
	trying    bool
	candidate opt.FlagSet
	candBuf   []float64
}

// Run executes ds once under adaptive tuning and returns the outcome.
// The run is deterministic for a given benchmark, machine and config seed.
func (a *AdaptiveTuner) Run(ds *bench.Dataset) (*AdaptiveResult, error) {
	w := a.Window
	if w == 0 {
		w = a.Cfg.Window
	}
	prog := a.Bench.Prog
	// Under a fault plan, transient compile failures are retried (backoff
	// charged to the run), miscompiles are injected by identity, and every
	// non-base version is checked against the base "-O3" outputs on ds
	// before any production invocation may run it — a failed check
	// quarantines the flag set.
	versions := newResolver("adaptive "+a.Bench.Name, prog, a.Bench.TS, a.Mach, nil, a.Cfg.Faults)
	versions.verifyDS, versions.verifySeed = ds, a.Cfg.Seed^a.Bench.Seed(73)
	res := &AdaptiveResult{Winners: map[string]opt.FlagSet{}}

	rng := rand.New(rand.NewSource(a.Cfg.Seed ^ a.Bench.Seed(61)))
	mem := sim.NewMemory(prog)
	if ds.Setup != nil {
		ds.Setup(mem, rng)
	}
	runner := sim.NewRunner(a.Mach, mem, a.Cfg.Seed^a.Bench.Seed(67))
	clock := sim.NewClockWith(a.Cfg.NoiseModel(a.Mach), a.Cfg.Seed^a.Bench.Seed(71))

	states := map[string]*ctxState{}

	for i := 0; i < ds.NumInvocations; i++ {
		args := ds.Args(i, mem, rng)
		// Key on the full static context set: profile-time "constants"
		// may vary in production.
		key := a.Profile.StaticKeyFor(a.Bench, args, mem)
		st := states[key]
		if st == nil {
			st = &ctxState{best: opt.O3()}
			states[key] = st
		}

		// Choose which version this invocation runs: the incumbent, or
		// the current experimental candidate.
		fs := st.best
		if !st.trying && st.nextFlag < opt.NumFlags && len(st.bestBuf) >= w {
			// Incumbent is calibrated; open the next candidate.
			st.candidate = st.best.Without(opt.Flag(st.nextFlag))
			st.nextFlag++
			for st.candidate == st.best && st.nextFlag < opt.NumFlags {
				// Flag already off in the incumbent; skip.
				st.candidate = st.best.Without(opt.Flag(st.nextFlag))
				st.nextFlag++
			}
			if st.candidate != st.best {
				st.trying = true
				st.candBuf = st.candBuf[:0]
				res.VersionsTried++
			}
		}
		if st.trying {
			fs = st.candidate
		}

		vi, fresh, err := versions.resolve(fs)
		if err != nil {
			return nil, err
		}
		if vi.quarantined {
			// The candidate failed verification: abandon the trial and run
			// the incumbent (which has always passed — "-O3" is exempt and
			// adopted candidates were verified before their trials).
			if fresh {
				res.Quarantined = append(res.Quarantined, fs)
			}
			st.trying = false
			fs = st.best
			if vi, _, err = versions.resolve(fs); err != nil {
				return nil, err
			}
		}
		_, stRun, err := runner.Run(vi.v, args)
		if err != nil {
			return nil, fmt.Errorf("adaptive %s: invocation %d: %w", a.Bench.Name, i, err)
		}
		res.TotalCycles += stRun.Cycles
		res.Invocations++
		measured := clock.Measure(stRun.Cycles)

		if st.trying {
			st.candBuf = append(st.candBuf, measured)
			if len(st.candBuf) >= w {
				candMean := robustMean(st.candBuf, a.Cfg.OutlierK)
				if st.bestMean > 0 && candMean < st.bestMean*(1-a.Cfg.ImprovementThreshold) {
					// Adopt: the experimental version becomes "best"
					// (the Figure-6 dynamic swap).
					st.best = st.candidate
					st.bestMean = candMean
					st.bestBuf = append(st.bestBuf[:0], st.candBuf...)
					res.Adoptions++
				}
				st.trying = false
			}
		} else {
			st.bestBuf = append(st.bestBuf, measured)
			if len(st.bestBuf) > 4*w {
				st.bestBuf = st.bestBuf[len(st.bestBuf)-2*w:]
			}
			if len(st.bestBuf) >= w {
				st.bestMean = robustMean(st.bestBuf, a.Cfg.OutlierK)
			}
		}
	}

	res.TotalCycles += versions.ledger.FaultCycles + versions.ledger.VerifyCycles
	res.CompileRetries = versions.ledger.CompileRetries
	res.ContextsSeen = len(states)
	keys := make([]string, 0, len(states))
	for k := range states {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		res.Winners[k] = states[k].best
	}
	return res, nil
}

func robustMean(xs []float64, k float64) float64 {
	kept, _, _ := stats.RejectOutliers(xs, k)
	return stats.Mean(kept)
}

// NewAdaptiveTuner profiles the benchmark (for context keying) and returns
// an adaptive tuner with the given config.
func NewAdaptiveTuner(b *bench.Benchmark, m *machine.Machine, cfg Config) (*AdaptiveTuner, error) {
	p, err := profiling.Run(b, b.Train, m)
	if err != nil {
		return nil, err
	}
	return &AdaptiveTuner{Bench: b, Mach: m, Cfg: cfg, Profile: p}, nil
}
