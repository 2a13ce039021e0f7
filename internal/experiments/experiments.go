// Package experiments regenerates the paper's evaluation artifacts:
// Table 1 (rating consistency) and Figure 7 (performance improvement and
// normalized tuning time on both machines), plus the noise-sensitivity
// and fault-injection reports built on the same protocols. Each artifact
// has one entry point taking a core.Env for its optional layers;
// cmd/peak-experiments, the repository benchmarks and EXPERIMENTS.md all
// drive them.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"peak/internal/bench"
	"peak/internal/core"
	"peak/internal/machine"
	"peak/internal/opt"
	"peak/internal/profiling"
	"peak/internal/sched"
	"peak/internal/trace"
	"peak/internal/workloads"
)

// PaperWindows are Table 1's window sizes.
var PaperWindows = []int{10, 20, 40, 80, 160}

// Table1 reproduces the consistency experiment for every benchmark on the
// given machine: the consultant-chosen rating method's error statistics per
// window size (§5.1). Each benchmark's profiling and consistency
// measurement is one coarse job on env.Pool; each job is self-contained —
// its random streams are seeded from the benchmark and the config, never
// shared — and the rows are reduced in workloads.All() order, so the output
// is identical at any worker count. A non-nil env.Trace receives one "cell"
// event per (consistency row, window size) in the same order, and
// env.Metrics the grid totals. On error the rows of the benchmarks before
// the first failed one are returned with the error (see shard).
func Table1(m *machine.Machine, windows []int, cfg *core.Config, env core.Env) ([]core.ConsistencyRow, error) {
	benches := workloads.All()
	return shard(len(benches), env, func(i int) string { return "table 1 " + benches[i].Name },
		func(i int, env core.Env) ([]core.ConsistencyRow, error) {
			b := benches[i]
			p, err := profiling.Run(b, b.Train, m)
			if err != nil {
				return nil, err
			}
			method := core.Consult(p, cfg).Chosen()
			rows, err := core.Consistency(b, m, p, method, windows, cfg)
			if err != nil {
				return nil, err
			}
			if env.Trace != nil {
				for _, row := range rows {
					section := row.Section
					if row.Context != "" {
						section += "(" + row.Context + ")"
					}
					for _, w := range windows {
						ws := row.Windows[w]
						env.Trace.Emit(trace.Event{Kind: trace.KindCell,
							Detail: fmt.Sprintf("table1/%s/%s/%s", b.Name, m.Name, section),
							Method: row.Method.String(), Count: int64(w),
							Mu: ws.Mu, Sigma: ws.Sigma})
					}
				}
			}
			env.Metrics.Add("experiments.table1_rows", int64(len(rows)))
			return rows, nil
		})
}

// shard runs n coarse jobs on env.Pool (nil means serial) and folds their
// results in job order — the reduction every experiment driver shares. Job
// i runs under a copy of env whose Trace and Metrics are private to it
// (nil where env's are), so jobs never contend on the observers; the fold
// appends each job's results, trace buffer and metrics in input order,
// which makes all three identical at any worker count. The fold stops at
// the first failed job: the results and observations of jobs 0..k−1 are
// returned with job k's error, so callers can flush partial output. A
// panicking job is recovered into an error naming it (label(i)) instead of
// taking down the process from a pool goroutine.
func shard[T any](n int, env core.Env, label func(i int) string, job func(i int, env core.Env) ([]T, error)) ([]T, error) {
	if env.Pool == nil {
		env.Pool = sched.NewSerial()
	}
	type result struct {
		out []T
		tb  *trace.Buffer
		mx  *trace.Metrics
		err error
	}
	results := make([]result, n)
	env.Pool.Map(n, func(i int) {
		defer func() {
			if r := recover(); r != nil {
				results[i] = result{err: fmt.Errorf("%s: panic: %v", label(i), r)}
			}
		}()
		jenv := env
		if env.Trace != nil {
			jenv.Trace = trace.NewBuffer()
		}
		if env.Metrics != nil {
			jenv.Metrics = trace.NewMetrics()
		}
		out, err := job(i, jenv)
		results[i] = result{out, jenv.Trace, jenv.Metrics, err}
	})
	var out []T
	for _, r := range results {
		if r.err != nil {
			return out, r.err
		}
		out = append(out, r.out...)
		env.Trace.Append(r.tb)
		env.Metrics.Merge(r.mx)
	}
	return out, nil
}

// FormatTable1 renders rows in the paper's layout: mean (standard
// deviation) multiplied by 100 per window size.
func FormatTable1(rows []core.ConsistencyRow, windows []int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-9s %-18s %-10s %-8s", "Benchmark", "Tuning Section", "Approach", "#invoc")
	for _, w := range windows {
		fmt.Fprintf(&sb, " %14s", fmt.Sprintf("w=%d", w))
	}
	sb.WriteByte('\n')
	for _, r := range rows {
		section := r.Section
		if r.Context != "" {
			section += "(" + r.Context + ")"
		}
		fmt.Fprintf(&sb, "%-9s %-18s %-10s %-8d", r.Benchmark, section, r.Method, r.Invocations)
		for _, w := range windows {
			ws := r.Windows[w]
			fmt.Fprintf(&sb, " %14s", fmt.Sprintf("%.2f(%.2f)", ws.Mu*100, ws.Sigma*100))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Fig7Entry is one bar group of Figure 7: a benchmark rated with one method
// variant, tuned separately on the train and ref datasets, always measured
// on ref.
type Fig7Entry struct {
	Benchmark string
	Method    core.Method
	// Chosen marks the method the PEAK consultant picked for the
	// benchmark ("The PEAK compiler chooses MBR for MGRID, CBR for SWIM,
	// CBR for EQUAKE, and RBR for ART", §5.2).
	Chosen bool

	// TrainImprovement / RefImprovement are the relative performance
	// improvements over "-O3" measured with the ref dataset, tuning with
	// the train or ref dataset respectively (left and right bars of
	// Figure 7 a–b).
	TrainImprovement float64
	RefImprovement   float64

	// TrainTuningCycles / RefTuningCycles are the simulated tuning times;
	// TrainNormTime / RefNormTime normalize them to the WHL entry of the
	// same benchmark (Figure 7 c–d).
	TrainTuningCycles int64
	RefTuningCycles   int64
	TrainNormTime     float64
	RefNormTime       float64

	// Flags records the train-tuned winner (diagnostics).
	Flags opt.FlagSet
}

// Figure7 reproduces the Figure-7 experiment on machine m for a benchmark
// list (the paper's is workloads.Figure7Set: SWIM, MGRID, ART, EQUAKE):
// every forceable rating method plus the WHL and AVG baselines, tuned on
// train and on ref, measured on ref. It runs with two grains of
// parallelism on env.Pool: each benchmark is one coarse job, and each
// tuning process inside it shards its candidate ratings through the same
// pool (sched.Pool.Map nests without deadlock). Entries are reduced in
// input order and every tuning engine derives its random streams per job,
// so the result is identical at any worker count.
//
// Every tuning process and performance measurement of the run shares
// env.Cache (each compilation happens once; nil leaves each tune its
// private cache) and env.Store. A non-nil env.Journal makes every tuning
// process append a checkpoint after each Iterative Elimination round
// (keyed "bench/machine/method/dataset") and resume from any state the
// journal already holds, reproducing the uninterrupted entries
// byte-for-byte. A non-nil env.Trace receives every tuning process's event
// stream and env.Metrics the per-tune counters, both folded in input order.
// Entries and trace bytes are identical for any cache value. On error the
// entries of the benchmarks before the first failed one are returned with
// the error (see shard).
func Figure7(benches []*bench.Benchmark, m *machine.Machine, cfg *core.Config, env core.Env) ([]Fig7Entry, error) {
	return shard(len(benches), env, func(i int) string { return "figure 7 " + benches[i].Name },
		func(i int, env core.Env) ([]Fig7Entry, error) { return figure7One(benches[i], m, cfg, env) })
}

func figure7One(b *bench.Benchmark, m *machine.Machine, cfg *core.Config, env core.Env) ([]Fig7Entry, error) {
	pTrain, err := profiling.Run(b, b.Train, m)
	if err != nil {
		return nil, err
	}
	pRef, err := profiling.Run(b, b.Ref, m)
	if err != nil {
		return nil, err
	}
	chosen := core.Consult(pTrain, cfg).Chosen()
	measure := func(flags opt.FlagSet) (int64, error) {
		ts, _, err := core.MeasurePerformanceStored(b, b.Ref, m, flags, env.Cache, env.Store)
		return ts, err
	}
	baseRef, err := measure(opt.O3())
	if err != nil {
		return nil, err
	}

	methods := forceable(pTrain, cfg)
	entries := make([]Fig7Entry, 0, len(methods))
	for _, method := range methods {
		e := Fig7Entry{Benchmark: b.Name, Method: method, Chosen: method == chosen}
		trainRes, err := env.Tune(core.Tuner{Bench: b, Mach: m, Dataset: b.Train, Cfg: *cfg, Profile: pTrain, Force: &method})
		if err != nil {
			return nil, fmt.Errorf("%s %s train: %w", b.Name, method, err)
		}
		refRes, err := env.Tune(core.Tuner{Bench: b, Mach: m, Dataset: b.Ref, Cfg: *cfg, Profile: pRef, Force: &method})
		if err != nil {
			return nil, fmt.Errorf("%s %s ref: %w", b.Name, method, err)
		}
		tunedTrain, err := measure(trainRes.Best)
		if err != nil {
			return nil, err
		}
		tunedRef, err := measure(refRes.Best)
		if err != nil {
			return nil, err
		}
		e.TrainImprovement = core.Improvement(baseRef, tunedTrain)
		e.RefImprovement = core.Improvement(baseRef, tunedRef)
		e.TrainTuningCycles = trainRes.TuningCycles
		e.RefTuningCycles = refRes.TuningCycles
		e.Flags = trainRes.Best
		entries = append(entries, e)
	}

	// Normalize tuning times to WHL.
	var whl *Fig7Entry
	for i := range entries {
		if entries[i].Method == core.MethodWHL {
			whl = &entries[i]
		}
	}
	for i := range entries {
		if whl != nil && whl.TrainTuningCycles > 0 {
			entries[i].TrainNormTime = float64(entries[i].TrainTuningCycles) / float64(whl.TrainTuningCycles)
		}
		if whl != nil && whl.RefTuningCycles > 0 {
			entries[i].RefNormTime = float64(entries[i].RefTuningCycles) / float64(whl.RefTuningCycles)
		}
	}
	return entries, nil
}

// forceable lists the method bars Figure 7 shows for a benchmark: every
// rating method that can be *executed*, plus the WHL and AVG baselines.
// CBR needs scalar context variables and constant control arrays but may
// still have too many contexts (the MGRID_CBR bar exists to show that
// cost); MBR appears only where the consultant finds the component model
// usable — the paper's figure has no art_MBR bar.
func forceable(p *profiling.Profile, cfg *core.Config) []core.Method {
	var out []core.Method
	if p.ContextSet.Applicable && p.ContextArraysConst && p.NumContexts() > 0 {
		out = append(out, core.MethodCBR)
	}
	if core.Consult(p, cfg).Has(core.MethodMBR) {
		out = append(out, core.MethodMBR)
	}
	out = append(out, core.MethodRBR, core.MethodWHL, core.MethodAVG)
	return out
}

// FormatFigure7 renders the entries as the two panels of Figure 7 for one
// machine: percentage improvements and normalized tuning times.
func FormatFigure7(entries []Fig7Entry, machineName string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Performance improvement over -O3 on %s (measured on ref):\n", machineName)
	fmt.Fprintf(&sb, "%-22s %7s %7s   %s\n", "bar", "train", "ref", "(tuning data set used)")
	for _, e := range entries {
		mark := " "
		if e.Chosen {
			mark = "*"
		}
		fmt.Fprintf(&sb, "%-22s %6.1f%% %6.1f%%  %s\n",
			strings.ToLower(e.Benchmark)+"_"+e.Method.String(), 100*e.TrainImprovement,
			100*e.RefImprovement, mark)
	}
	fmt.Fprintf(&sb, "\nTuning time normalized to WHL on %s:\n", machineName)
	fmt.Fprintf(&sb, "%-22s %7s %7s\n", "bar", "train", "ref")
	for _, e := range entries {
		fmt.Fprintf(&sb, "%-22s %7.3f %7.3f\n",
			strings.ToLower(e.Benchmark)+"_"+e.Method.String(), e.TrainNormTime, e.RefNormTime)
	}
	sb.WriteString("(* = method chosen by the PEAK consultant)\n")
	return sb.String()
}

// Headline summarizes the paper's abstract-level claims over a set of
// Figure-7 entries from both machines: maximum and average improvement
// using the PEAK-chosen methods, and maximum and average tuning-time
// reduction versus WHL.
type Headline struct {
	MaxImprovement float64
	AvgImprovement float64
	MaxReduction   float64
	AvgReduction   float64
}

// Summarize computes the headline numbers from the chosen-method entries.
func Summarize(entries []Fig7Entry) Headline {
	var h Headline
	var imps, reds []float64
	for _, e := range entries {
		if !e.Chosen {
			continue
		}
		imps = append(imps, e.TrainImprovement)
		if e.TrainNormTime > 0 {
			reds = append(reds, 1-e.TrainNormTime)
		}
	}
	sort.Float64s(imps)
	sort.Float64s(reds)
	for _, v := range imps {
		h.AvgImprovement += v
		if v > h.MaxImprovement {
			h.MaxImprovement = v
		}
	}
	if len(imps) > 0 {
		h.AvgImprovement /= float64(len(imps))
	}
	for _, v := range reds {
		h.AvgReduction += v
		if v > h.MaxReduction {
			h.MaxReduction = v
		}
	}
	if len(reds) > 0 {
		h.AvgReduction /= float64(len(reds))
	}
	return h
}
