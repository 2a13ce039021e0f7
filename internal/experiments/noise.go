package experiments

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"sync"

	"peak/internal/bench"
	"peak/internal/core"
	"peak/internal/machine"
	"peak/internal/noise"
	"peak/internal/profiling"
	"peak/internal/sched"
	"peak/internal/sim"
	"peak/internal/trace"
)

// This file adds the noise-sensitivity experiment: how do the rating
// methods' Table-1 error statistics — and the winner-picking reliability of
// Iterative Elimination's core comparison — degrade when the measurement
// noise departs from the machine's default jitter-plus-spikes model? The
// paper attributes its outliers to "system perturbations, such as
// interrupts" (§3); the regimes below stress that assumption with heavier
// tails, slow thermal-style drift and correlated bursts.

// NoiseRegime pairs a stable label with a noise model.
type NoiseRegime struct {
	Name  string
	Model noise.Model
}

// NoiseWindow is the fixed rating-window size the noise report uses.
const NoiseWindow = 40

// noiseTrialCount and noiseTrialMargin parameterize the winner-picking
// section: paired trials where the experimental version is truly worse /
// better than the base by the margin.
const (
	noiseTrialCount  = 40
	noiseTrialMargin = 0.002
	noiseTrialCycles = 1_000_000
)

// Regimes returns the noise regimes the report sweeps on machine m: the
// machine's calibrated default, then four stress regimes derived from it.
func Regimes(m *machine.Machine) []NoiseRegime {
	d := sim.DefaultNoise(m)
	return []NoiseRegime{
		{Name: "baseline", Model: d},
		{Name: "gauss4x", Model: noise.Gaussian(4 * d.Jitter)},
		{Name: "spikes", Model: noise.HeavySpikes(d.Jitter, 0.05, 4)},
		{Name: "drift", Model: noise.ThermalDrift(d.Jitter, 0.04, 400)},
		{Name: "bursts", Model: noise.Bursts(d.Jitter, 0.02, 12, 0.08)},
	}
}

// RegimeByName resolves a regime label for machine m.
func RegimeByName(m *machine.Machine, name string) (NoiseRegime, bool) {
	for _, r := range Regimes(m) {
		if r.Name == name {
			return r, true
		}
	}
	return NoiseRegime{}, false
}

// RegimeNames lists the regime labels in report order.
func RegimeNames(m *machine.Machine) []string {
	regimes := Regimes(m)
	names := make([]string, len(regimes))
	for i, r := range regimes {
		names[i] = r.Name
	}
	return names
}

// cellMemoKey names one noise-grid cell in the store's memo table. The
// config digest covers the regime's noise model (cfg.Noise is resolved by
// MemoDigest), so two regimes never share a record.
func cellMemoKey(b *bench.Benchmark, m *machine.Machine, regime string, c *core.Config) string {
	return fmt.Sprintf("v1/noise/%s/%s/%s/w=%d/cfg=%s", b.Name, m.Name, regime, NoiseWindow, c.MemoDigest(m))
}

// encodeCellMemo packs a cell's outcome (chosen method + headline window
// statistic) into a deterministic 32-byte payload; decodeCellMemo is its
// inverse, returning false on any size or range mismatch so a stale or
// foreign record falls back to computing the cell live.
func encodeCellMemo(method core.Method, st core.WindowStat) []byte {
	buf := make([]byte, 0, 32)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(method))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(st.Mu))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(st.Sigma))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(st.N))
	return buf
}

// decodeCellMemo unpacks encodeCellMemo's payload.
func decodeCellMemo(payload []byte) (core.Method, core.WindowStat, bool) {
	if len(payload) != 32 {
		return 0, core.WindowStat{}, false
	}
	method := core.Method(binary.LittleEndian.Uint64(payload))
	st := core.WindowStat{
		Mu:    math.Float64frombits(binary.LittleEndian.Uint64(payload[8:])),
		Sigma: math.Float64frombits(binary.LittleEndian.Uint64(payload[16:])),
		N:     int(binary.LittleEndian.Uint64(payload[24:])),
	}
	return method, st, true
}

// NoiseReport regenerates the noise-sensitivity report for machine m over
// a benchmark list (the report's is workloads.All): Table-1-style rating
// consistency of every (benchmark, regime) grid cell, then the
// winner-picking reliability of the CI-gated decision rule against the
// raw-mean rule under each regime. Each grid cell is one job on env.Pool —
// its profile and measurement streams are seeded from the benchmark and
// the config alone — and cells are reduced in (benchmark, regime) order, so
// the report is byte-identical at any worker count.
//
// A non-nil env.Store memoizes each cell's result under a key covering the
// benchmark, machine, regime noise model and full rating configuration, so
// a warm rerun answers the cells without profiling or simulating; a memo
// hit restores exactly the values a cold cell computes. The winner-trial
// section is cheap and always runs live. A non-nil env.Trace receives one
// "cell" event per grid cell and one "trials" event per (regime, decision
// rule), env.Metrics the grid totals; the trace bytes are identical with
// the store nil, cold or warm, and — since the grid touches no compile
// cache — with the cache on or off.
func NoiseReport(benches []*bench.Benchmark, m *machine.Machine, cfg *core.Config, env core.Env) (string, error) {
	regimes := Regimes(m)
	// A cell's profile depends on its benchmark and machine, never on the
	// regime, so a benchmark's regimes share one profile run. The run is
	// lazy: cells answered from the memo table profile nothing.
	profiles := make([]func() (*profiling.Profile, error), len(benches))
	for bi, b := range benches {
		profiles[bi] = sync.OnceValues(func() (*profiling.Profile, error) {
			return profiling.Run(b, b.Train, m)
		})
	}
	type cell struct {
		method core.Method
		stat   core.WindowStat
	}
	cells, err := shard(len(benches)*len(regimes), env,
		func(i int) string {
			return fmt.Sprintf("noise %s/%s", benches[i/len(regimes)].Name, regimes[i%len(regimes)].Name)
		},
		func(i int, env core.Env) ([]cell, error) {
			b := benches[i/len(regimes)]
			regime := regimes[i%len(regimes)]
			c := *cfg
			c.Noise = &regime.Model
			// done emits the cell's trace event — identical whether the
			// values were computed live or restored from the memo table, so
			// the trace bytes never depend on the store's temperature.
			done := func(method core.Method, st core.WindowStat) ([]cell, error) {
				env.Trace.Emit(trace.Event{Kind: trace.KindCell,
					Detail: fmt.Sprintf("noise/%s/%s/%s", b.Name, m.Name, regime.Name),
					Method: method.String(), Count: NoiseWindow,
					Mu: st.Mu, Sigma: st.Sigma})
				env.Metrics.Add("experiments.noise_cells", 1)
				return []cell{{method, st}}, nil
			}
			var memoK string
			if env.Store != nil {
				memoK = cellMemoKey(b, m, regime.Name, &c)
				if payload, ok := env.Store.LookupMemo(core.MemoKindCell, memoK); ok {
					if method, st, valid := decodeCellMemo(payload); valid {
						return done(method, st)
					}
				}
			}
			p, err := profiles[i/len(regimes)]()
			if err != nil {
				return nil, err
			}
			method := core.Consult(p, &c).Chosen()
			rows, err := core.Consistency(b, m, p, method, []int{NoiseWindow}, &c)
			if err != nil {
				return nil, err
			}
			// The dominant-context row carries the headline statistic.
			st := rows[0].Windows[NoiseWindow]
			if env.Store != nil {
				env.Store.RecordMemo(core.MemoKindCell, memoK, encodeCellMemo(method, st))
			}
			return done(method, st)
		})
	if err != nil {
		return "", err
	}
	tb, mx := env.Trace, env.Metrics

	var sb strings.Builder
	fmt.Fprintf(&sb, "Rating consistency under noise on %s (w=%d, Mean(StdDev) of rating error x100,\nconsultant-chosen method, dominant context):\n",
		m.Name, NoiseWindow)
	fmt.Fprintf(&sb, "%-9s %-8s", "Benchmark", "Approach")
	for _, r := range regimes {
		fmt.Fprintf(&sb, " %14s", r.Name)
	}
	sb.WriteByte('\n')
	for bi, b := range benches {
		fmt.Fprintf(&sb, "%-9s %-8s", b.Name, cells[bi*len(regimes)].method)
		for ri := range regimes {
			ws := cells[bi*len(regimes)+ri].stat
			fmt.Fprintf(&sb, " %14s", fmt.Sprintf("%.2f(%.2f)", ws.Mu*100, ws.Sigma*100))
		}
		sb.WriteByte('\n')
	}

	// Winner-picking reliability: the CI-gated decision rule against the
	// legacy raw-mean rule on identical measurement streams. Cheap and
	// deterministic, so it runs serially.
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "Winner picking under noise (%d paired trials per regime, experimental version\ntruly %.1f%% worse / better; stderr = raw-mean comparison, CI = Welch-gated):\n",
		noiseTrialCount, 100*noiseTrialMargin)
	fmt.Fprintf(&sb, "%-10s %21s %21s %23s\n", "", "wrong adopts", "missed wins", "invocations/trial")
	fmt.Fprintf(&sb, "%-10s %10s %10s %10s %10s %11s %11s\n",
		"regime", "stderr", "CI", "stderr", "CI", "stderr", "CI")
	for _, r := range regimes {
		cfgCI, cfgSE := *cfg, *cfg
		cfgCI.Convergence = core.ConvergeCI
		cfgSE.Convergence = core.ConvergeStdErr
		cfgCI.ImprovementThreshold = 0
		cfgSE.ImprovementThreshold = 0
		seed := sched.DeriveSeed(cfg.Seed, "noise-trials/"+r.Name)
		ci := core.RunWinnerTrials(&cfgCI, r.Model, seed, noiseTrialCount, noiseTrialCycles, noiseTrialMargin)
		se := core.RunWinnerTrials(&cfgSE, r.Model, seed, noiseTrialCount, noiseTrialCycles, noiseTrialMargin)
		if tb != nil {
			// The trial section runs serially on the reduction goroutine, so
			// it emits straight into the report's buffer, stderr rule first
			// (matching the printed column order).
			tb.Emit(trace.Event{Kind: trace.KindTrials,
				Detail: fmt.Sprintf("noise/%s/%s/stderr", m.Name, r.Name),
				Counts: map[string]int64{"wrong_adopts": int64(se.WrongAdopts),
					"misses": int64(se.Misses), "trials": int64(se.Trials),
					"invocations": int64(se.Invocations)}})
			tb.Emit(trace.Event{Kind: trace.KindTrials,
				Detail: fmt.Sprintf("noise/%s/%s/CI", m.Name, r.Name),
				Counts: map[string]int64{"wrong_adopts": int64(ci.WrongAdopts),
					"misses": int64(ci.Misses), "trials": int64(ci.Trials),
					"invocations": int64(ci.Invocations)}})
		}
		if mx != nil {
			mx.Add("experiments.trial_invocations", int64(se.Invocations+ci.Invocations))
		}
		fmt.Fprintf(&sb, "%-10s %7d/%2d %7d/%2d %7d/%2d %7d/%2d %11.0f %11.0f\n",
			r.Name,
			se.WrongAdopts, se.Trials, ci.WrongAdopts, ci.Trials,
			se.Misses, se.Trials, ci.Misses, ci.Trials,
			float64(se.Invocations)/float64(2*se.Trials),
			float64(ci.Invocations)/float64(2*ci.Trials))
	}
	return sb.String(), nil
}
