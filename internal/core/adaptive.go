package core

import (
	"fmt"
	"math/rand"
	"sort"

	"peak/internal/bench"
	"peak/internal/fault"
	"peak/internal/machine"
	"peak/internal/opt"
	"peak/internal/profiling"
	"peak/internal/sched"
	"peak/internal/sim"
	"peak/internal/stats"
	"peak/internal/vcache"
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
type AdaptiveTuner struct {
	Bench   *bench.Benchmark
	Mach    *machine.Machine
	Cfg     Config
	Profile *profiling.Profile

	// Window overrides Cfg.Window for the online samples (smaller windows
	// keep exploration overhead low); zero keeps Cfg.Window.
	Window int

	// Cache optionally shares compiled versions with other tuners (see
	// Tuner.Cache). Nil keeps the run's private per-flag-set memo; results
	// are bit-identical either way.
	Cache *vcache.Cache
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
	versions := map[opt.FlagSet]*sim.Version{}
	faults := a.Cfg.Faults
	if faults.IsZero() {
		faults = nil
	}
	var progKey uint64
	if a.Cache != nil || faults != nil {
		// Fault decisions are keyed by compile identity, and corrupted
		// artifacts must never collide with clean ones in a shared cache,
		// so the program key is salted with the plan fingerprint.
		progKey = vcache.ProgramKey(prog)
		if faults != nil {
			progKey ^= faults.Fingerprint()
		}
	}
	verifySeed := a.Cfg.Seed ^ a.Bench.Seed(73)
	quarantined := map[opt.FlagSet]bool{}
	var golden *goldenRef
	res := &AdaptiveResult{Winners: map[string]opt.FlagSet{}}

	// version resolves fs, applying the fault plan when one is active:
	// transient compile failures are retried (backoff charged to the run),
	// miscompiles are injected by identity, and every non-base version is
	// checked against the base "-O3" outputs before any production
	// invocation may run it — a failed check quarantines the flag set.
	var version func(fs opt.FlagSet) (v *sim.Version, quar bool, err error)
	version = func(fs opt.FlagSet) (*sim.Version, bool, error) {
		if quarantined[fs] {
			return nil, true, nil
		}
		if v, ok := versions[fs]; ok {
			return v, false, nil
		}
		idKey := fmt.Sprintf("%d/%s/%s/%s", progKey, a.Bench.TS.Name, fs, a.Mach.Name)
		if faults != nil {
			n := faults.CompileFailures(idKey)
			if n > faults.CompileRetries() {
				return nil, false, fmt.Errorf("compile %s: injected compiler crash persisted: %w",
					fs, fault.ErrRetriesExhausted)
			}
			res.CompileRetries += n
			for i := 0; i < n; i++ {
				res.TotalCycles += faults.Backoff(i)
			}
		}
		compile := func() (*sim.Version, error) {
			v, err := opt.Compile(prog, a.Bench.TS, fs, a.Mach)
			if err != nil {
				return nil, err
			}
			if faults != nil && fs != opt.O3() && faults.Miscompiles(idKey) {
				fault.Corrupt(v, sched.DeriveSeed(faults.Seed, "corrupt/"+idKey))
			}
			return v, nil
		}
		var v *sim.Version
		var err error
		if a.Cache != nil {
			var r vcache.Resolution
			r, err = a.Cache.Resolve(
				vcache.Key{Prog: progKey, Fn: a.Bench.TS.Name, Flags: fs, Machine: a.Mach.Name},
				compile)
			v = r.V
		} else {
			v, err = compile()
		}
		if err != nil {
			return nil, false, err
		}
		if faults != nil && fs != opt.O3() {
			if golden == nil {
				base, _, berr := version(opt.O3())
				if berr != nil {
					return nil, false, berr
				}
				rets, snap, cyc, maxInstrs, gerr := runVerifyWorkload(a.Mach, prog, ds, verifySeed, base, 0)
				if gerr != nil {
					return nil, false, fmt.Errorf("golden reference run failed: %w", gerr)
				}
				res.TotalCycles += cyc
				golden = &goldenRef{rets: rets, mem: snap, maxInstrs: maxInstrs}
			}
			maxSteps := golden.maxInstrs * verifyStepFactor
			if maxSteps < 1_000_000 {
				maxSteps = 1_000_000
			}
			rets, snap, cyc, _, rerr := runVerifyWorkload(a.Mach, prog, ds, verifySeed, v, maxSteps)
			res.TotalCycles += cyc
			if rerr != nil || !floatsClose(rets, golden.rets) || !memClose(snap, golden.mem) {
				quarantined[fs] = true
				res.Quarantined = append(res.Quarantined, fs)
				if a.Cache != nil {
					a.Cache.MarkQuarantined(vcache.Key{Prog: progKey, Fn: a.Bench.TS.Name, Flags: fs, Machine: a.Mach.Name})
				}
				return nil, true, nil
			}
		}
		versions[fs] = v
		return v, false, nil
	}

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

		v, quar, err := version(fs)
		if err != nil {
			return nil, fmt.Errorf("adaptive %s: %w", a.Bench.Name, err)
		}
		if quar {
			// The candidate failed verification: abandon the trial and run
			// the incumbent (which has always passed — "-O3" is exempt and
			// adopted candidates were verified before their trials).
			st.trying = false
			fs = st.best
			v, _, err = version(fs)
			if err != nil {
				return nil, fmt.Errorf("adaptive %s: %w", a.Bench.Name, err)
			}
		}
		_, stRun, err := runner.Run(v, args)
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
