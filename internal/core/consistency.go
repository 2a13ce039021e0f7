package core

import (
	"fmt"
	"math/rand"
	"sort"

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
// the rating errors for each window size (§5.1). Every invocation runs
// through the tuner's own rater for the method (newRater), so cfg's
// BasicRBR and RBRInspector apply here as they do in a tune; only the
// windowing of the recorded samples happens offline.
func Consistency(b *bench.Benchmark, m *machine.Machine, p *profiling.Profile,
	method Method, windows []int, cfg *Config) ([]ConsistencyRow, error) {
	if method == MethodWHL || (method == MethodMBR && p.Model == nil) {
		return nil, fmt.Errorf("consistency %s: unsupported method %s", b.Name, method)
	}
	prog, ts := tuningProgram(b, p)
	best, err := opt.Compile(prog, ts, opt.O3(), m)
	if err != nil {
		return nil, fmt.Errorf("consistency %s: %w", b.Name, err)
	}
	// The experimental version is compiled under the same "-O3" as the
	// base (§5.1) but is a distinct code copy, with its own branch
	// predictor and icache state — as the dynamically linked versions in
	// PEAK/ADAPT are.
	exp, err := opt.Compile(prog, ts, opt.O3(), m)
	if err != nil {
		return nil, fmt.Errorf("consistency %s: %w", b.Name, err)
	}

	ds := b.Train
	rng := rand.New(rand.NewSource(cfg.Seed ^ b.Seed(41)))
	mem := sim.NewMemory(prog)
	if ds.Setup != nil {
		ds.Setup(mem, rng)
	}
	ic := &invocation{
		runner: sim.NewRunner(m, mem, cfg.Seed^b.Seed(43)),
		clock:  sim.NewClockWith(cfg.NoiseModel(m), cfg.Seed^b.Seed(47)),
		mem:    mem,
		best:   best,
		exp:    exp,
	}
	// CBR's rows cover several contexts, not only the tuner's target, so
	// CBR observes every invocation through the AVG rater and groups the
	// samples by the context key recorded before each run.
	rm := method
	if method == MethodCBR {
		rm = MethodAVG
	}
	r := newRater(rm, p, cfg, mem)
	var keys []string
	for i := 0; i < ds.NumInvocations; i++ {
		ic.args = ds.Args(i, mem, rng)
		if method == MethodCBR {
			keys = append(keys, p.CBRKeyFor(b, ic.args, mem))
		}
		if _, err := r.observe(ic); err != nil {
			return nil, fmt.Errorf("consistency %s: %w", b.Name, err)
		}
	}

	// row builds one Table-1 row from the sampled ratings of each window
	// size. RBR's ratings are ratios with the ideal 1; the other methods'
	// errors are relative to their mean.
	row := func(context string, ratings func(w int) []float64) ConsistencyRow {
		out := ConsistencyRow{
			Benchmark:   b.Name,
			Section:     b.TSName,
			Method:      method,
			Context:     context,
			Invocations: ds.NumInvocations,
			Windows:     map[int]WindowStat{},
		}
		for _, w := range windows {
			v := ratings(w)
			mu, sigma := stats.RatingError(v, method != MethodRBR)
			out.Windows[w] = WindowStat{Mu: mu, Sigma: sigma, N: len(v)}
		}
		return out
	}
	means := func(vals []float64) func(int) []float64 {
		return func(w int) []float64 { return windowMeans(vals, w, cfg) }
	}

	switch r := r.(type) {
	case *rbrRater:
		return []ConsistencyRow{row("", means(r.samples))}, nil
	case *mbrRater:
		return []ConsistencyRow{row("", func(w int) []float64 {
			var ratings []float64
			for start := 0; start+w <= len(r.rows); start += w {
				res, err := regress.Solve(r.rows[start:start+w], r.times.samples[start:start+w])
				if err == nil {
					ratings = append(ratings, tAvg(res.Coef, r.cAvg))
				}
			}
			return ratings
		})}, nil
	}
	samples := r.(*avgRater).samples
	if method == MethodAVG {
		return []ConsistencyRow{row("", means(samples))}, nil
	}
	// CBR: one row per context, most time-consuming first (the paper shows
	// up to three contexts per section).
	order := contextOrder(p)
	var rows []ConsistencyRow
	for ci, key := range order[:min(len(order), 3)] {
		label := ""
		if len(order) > 1 {
			label = fmt.Sprintf("Context %d", ci+1)
		}
		var vals []float64
		for i, k := range keys {
			if k == key {
				vals = append(vals, samples[i])
			}
		}
		rows = append(rows, row(label, means(vals)))
	}
	return rows, nil
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
