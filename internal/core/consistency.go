package core

import (
	"fmt"
	"math/rand"
	"sort"

	"peak/internal/analysis"
	"peak/internal/bench"
	"peak/internal/machine"
	"peak/internal/opt"
	"peak/internal/profiling"
	"peak/internal/regress"
	"peak/internal/sim"
	"peak/internal/stats"
)

// WindowStat is one (window size → rating-error statistics) entry of
// Table 1: the Mean and Standard Deviation of the rating errors X_i
// (Eqs. 8–10), and the number of sampled ratings n.
type WindowStat struct {
	Mu, Sigma float64
	N         int
}

// ConsistencyRow is one Table-1 row: a tuning section (optionally one of
// its contexts under CBR) with its rating-error statistics per window size.
type ConsistencyRow struct {
	Benchmark string
	Section   string
	Method    Method
	// Context labels CBR rows when a section has several contexts
	// ("Context 1", ...); empty otherwise.
	Context string
	// Invocations is the dataset's invocation count (the paper's column 4,
	// scaled per DESIGN.md §6).
	Invocations int
	Windows     map[int]WindowStat
}

// Consistency reproduces the Table-1 experiment for one benchmark: using
// the training dataset and a single experimental version compiled under
// "-O3" (identical to the base version), it uniformly samples ratings
// throughout the execution and reports the mean and standard deviation of
// the rating errors for each window size (§5.1).
func Consistency(b *bench.Benchmark, m *machine.Machine, p *profiling.Profile,
	method Method, windows []int, cfg *Config) ([]ConsistencyRow, error) {
	instr := analysis.Instrument(b.TS)
	keep := map[int]bool{}
	if p.Model != nil {
		keep = p.Model.KeepCounters
	}
	ts := analysis.StripCounters(instr, keep)
	prog := b.Prog.Clone()
	prog.AddFunc(ts)

	v, err := opt.Compile(prog, ts, opt.O3(), m)
	if err != nil {
		return nil, fmt.Errorf("consistency %s: %w", b.Name, err)
	}
	// The experimental version is compiled under the same "-O3" as the
	// base (§5.1) but is a distinct code copy, with its own branch
	// predictor and icache state — as the dynamically linked versions in
	// PEAK/ADAPT are.
	v2, err := opt.Compile(prog, ts, opt.O3(), m)
	if err != nil {
		return nil, fmt.Errorf("consistency %s: %w", b.Name, err)
	}

	ds := b.Train
	rng := rand.New(rand.NewSource(cfg.Seed ^ b.Seed(41)))
	mem := sim.NewMemory(prog)
	if ds.Setup != nil {
		ds.Setup(mem, rng)
	}
	runner := sim.NewRunner(m, mem, cfg.Seed^b.Seed(43))
	clock := sim.NewClockWith(cfg.NoiseModel(m), cfg.Seed^b.Seed(47))

	// Collect the per-invocation stream once; windows are formed offline.
	type raw struct {
		t      float64
		key    string
		counts []float64
		ratio  float64
	}
	stream := make([]raw, 0, ds.NumInvocations)

	modInput := p.Effects.ModifiedInput()
	if cfg.BasicRBR {
		// Basic Figure-3 method: save the whole input set.
		modInput = nil
		for arr := range p.Effects.Reads {
			modInput = append(modInput, arr)
		}
		sort.Strings(modInput)
	}
	flip := false
	for i := 0; i < ds.NumInvocations; i++ {
		args := ds.Args(i, mem, rng)
		var r raw
		if method == MethodCBR {
			r.key = p.CBRKeyFor(b, args, mem)
		}
		if method == MethodRBR {
			// RBR with the experimental version equal to the base: the
			// ideal rating is exactly 1. The improved method (Figure 4)
			// swaps the two code copies each invocation and preconditions
			// the cache; the basic method (Figure 3) does neither.
			va, vb := v, v2
			if !cfg.BasicRBR && flip {
				va, vb = vb, va
			}
			flip = !flip
			snap := mem.Snapshot(modInput)
			if !cfg.BasicRBR {
				if _, _, err := runner.Run(va, args); err != nil { // precondition
					return nil, fmt.Errorf("consistency %s: %w", b.Name, err)
				}
				mem.Restore(snap)
			}
			_, s1, err := runner.Run(va, args)
			if err != nil {
				return nil, fmt.Errorf("consistency %s: %w", b.Name, err)
			}
			mem.Restore(snap)
			_, s2, err := runner.Run(vb, args)
			if err != nil {
				return nil, fmt.Errorf("consistency %s: %w", b.Name, err)
			}
			t1, t2 := clock.Measure(s1.Cycles), clock.Measure(s2.Cycles)
			// R = T(base copy) / T(experimental copy), independent of the
			// execution order.
			if va != v {
				t1, t2 = t2, t1
			}
			if t2 > 0 {
				r.ratio = t1 / t2
			}
		} else {
			_, st, err := runner.Run(v, args)
			if err != nil {
				return nil, fmt.Errorf("consistency %s: %w", b.Name, err)
			}
			r.t = clock.Measure(st.Cycles)
			if method == MethodMBR && p.Model != nil {
				r.counts = p.Model.CountsFor(st.Counters)
			}
		}
		stream = append(stream, r)
	}

	newRow := func(context string) ConsistencyRow {
		return ConsistencyRow{
			Benchmark:   b.Name,
			Section:     b.TSName,
			Method:      method,
			Context:     context,
			Invocations: ds.NumInvocations,
			Windows:     map[int]WindowStat{},
		}
	}

	switch method {
	case MethodRBR:
		vals := make([]float64, 0, len(stream))
		for _, r := range stream {
			vals = append(vals, r.ratio)
		}
		row := newRow("")
		for _, w := range windows {
			ratings := windowMeans(vals, w, cfg)
			mu, sigma := stats.RatingError(ratings, false)
			row.Windows[w] = WindowStat{Mu: mu, Sigma: sigma, N: len(ratings)}
		}
		return []ConsistencyRow{row}, nil

	case MethodAVG:
		vals := make([]float64, 0, len(stream))
		for _, r := range stream {
			vals = append(vals, r.t)
		}
		row := newRow("")
		for _, w := range windows {
			ratings := windowMeans(vals, w, cfg)
			mu, sigma := stats.RatingError(ratings, true)
			row.Windows[w] = WindowStat{Mu: mu, Sigma: sigma, N: len(ratings)}
		}
		return []ConsistencyRow{row}, nil

	case MethodCBR:
		// One row per context, most time-consuming first (the paper shows
		// up to three contexts per section).
		keys := contextOrder(p)
		var rows []ConsistencyRow
		for ci, key := range keys {
			label := ""
			if len(keys) > 1 {
				label = fmt.Sprintf("Context %d", ci+1)
			}
			row := newRow(label)
			var vals []float64
			for _, r := range stream {
				if r.key == key {
					vals = append(vals, r.t)
				}
			}
			for _, w := range windows {
				ratings := windowMeans(vals, w, cfg)
				mu, sigma := stats.RatingError(ratings, true)
				row.Windows[w] = WindowStat{Mu: mu, Sigma: sigma, N: len(ratings)}
			}
			rows = append(rows, row)
			if ci == 2 {
				break
			}
		}
		return rows, nil

	case MethodMBR:
		row := newRow("")
		for _, w := range windows {
			var ratings []float64
			for start := 0; start+w <= len(stream); start += w {
				var x [][]float64
				var y []float64
				for _, r := range stream[start : start+w] {
					x = append(x, r.counts)
					y = append(y, r.t)
				}
				res, err := regress.Solve(x, y)
				if err != nil {
					continue
				}
				ratings = append(ratings, mbrEval(res.Coef, p))
			}
			mu, sigma := stats.RatingError(ratings, true)
			row.Windows[w] = WindowStat{Mu: mu, Sigma: sigma, N: len(ratings)}
		}
		return []ConsistencyRow{row}, nil
	}
	return nil, fmt.Errorf("consistency: unsupported method %s", method)
}

// windowMeans chops the value stream into consecutive windows of size w and
// returns each window's outlier-rejected mean — the sampled ratings V_i.
func windowMeans(vals []float64, w int, cfg *Config) []float64 {
	var out []float64
	for start := 0; start+w <= len(vals); start += w {
		kept, _, _ := stats.RejectOutliers(vals[start:start+w], cfg.OutlierK)
		out = append(out, stats.Mean(kept))
	}
	return out
}

func contextOrder(p *profiling.Profile) []string {
	type kv struct {
		key    string
		cycles int64
	}
	var list []kv
	for k, st := range p.Contexts {
		list = append(list, kv{k, st.TotalCycles})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].cycles != list[j].cycles {
			return list[i].cycles > list[j].cycles
		}
		return list[i].key < list[j].key
	})
	keys := make([]string, len(list))
	for i, e := range list {
		keys[i] = e.key
	}
	return keys
}

func mbrEval(coef []float64, p *profiling.Profile) float64 {
	eval := 0.0
	for i, c := range coef {
		if i < len(p.CAvg) {
			eval += c * p.CAvg[i]
		}
	}
	return eval
}
