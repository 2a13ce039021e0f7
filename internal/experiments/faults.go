package experiments

import (
	"fmt"
	"strings"

	"peak/internal/bench"
	"peak/internal/core"
	"peak/internal/fault"
	"peak/internal/machine"
	"peak/internal/opt"
	"peak/internal/profiling"
)

// This file adds the robustness experiment: the Figure-7 tuning protocol is
// re-run under deterministic fault injection — transient compile failures,
// silent miscompiles, measurement hangs and rating-job panics — and each
// bar's winning flag set is compared against its fault-free twin. The
// engine's recovery machinery (retry with backoff, golden-output
// verification with quarantine, panic isolation) has one success criterion:
// the faulted tuning process completes and still picks the same winners.

// FaultBar is one (benchmark, method) comparison of the fault report.
type FaultBar struct {
	Benchmark string
	Method    core.Method

	// CleanBest / FaultedBest are the winning flag sets tuned on the train
	// dataset without and with fault injection; Same is their equality.
	CleanBest   opt.FlagSet
	FaultedBest opt.FlagSet
	Same        bool

	// Recovery ledger of the faulted tune.
	Quarantined       []opt.Flag
	CompileRetries    int
	MeasureRetries    int
	JobRetries        int
	VerifyInvocations int64
	// Overhead is the faulted tune's simulated tuning time relative to the
	// fault-free tune's (1 = no overhead).
	Overhead float64
}

// FaultReport computes the robustness experiment's bars for a benchmark
// list (the report's is workloads.Figure7Set): per benchmark and forceable
// rating method, one fault-free and one faulted tune on the train dataset.
// The faulted twin runs under cfg.Faults, the fault-free twin under cfg
// with Faults cleared; both share env.Cache and env.Metrics. Only the
// faulted twin checkpoints to env.Journal (resuming from any prior state it
// already holds — see core.Tuner.Journal) and records its event stream in
// env.Trace: the fault-free twin would collide with its identity and tell
// a story the Figure-7 trace already tells. Each benchmark is one coarse
// job on env.Pool and bars are reduced in input order, so the bars and the
// trace bytes are identical at any worker count. On error the bars of the
// benchmarks before the first failed one are returned with the error (see
// shard). FormatFaultReport renders the bars.
func FaultReport(benches []*bench.Benchmark, m *machine.Machine, cfg *core.Config, env core.Env) ([]FaultBar, error) {
	return shard(len(benches), env, func(i int) string { return "fault report " + benches[i].Name },
		func(i int, env core.Env) ([]FaultBar, error) { return faultReportOne(benches[i], m, cfg, env) })
}

func faultReportOne(b *bench.Benchmark, m *machine.Machine, cfg *core.Config, env core.Env) ([]FaultBar, error) {
	p, err := profiling.Run(b, b.Train, m)
	if err != nil {
		return nil, err
	}
	cleanEnv := env
	cleanEnv.Journal, cleanEnv.Trace = nil, nil
	cleanCfg := *cfg
	cleanCfg.Faults = nil
	var bars []FaultBar
	for _, method := range forceable(p, cfg) {
		tuner := core.Tuner{Bench: b, Mach: m, Dataset: b.Train, Cfg: cleanCfg, Profile: p, Force: &method}
		clean, err := cleanEnv.Tune(tuner)
		if err != nil {
			return bars, fmt.Errorf("%s %s fault-free: %w", b.Name, method, err)
		}
		tuner.Cfg = *cfg
		faulted, err := env.Tune(tuner)
		if err != nil {
			return bars, fmt.Errorf("%s %s faulted: %w", b.Name, method, err)
		}
		bar := FaultBar{
			Benchmark: b.Name, Method: method,
			CleanBest: clean.Best, FaultedBest: faulted.Best,
			Same:              clean.Best == faulted.Best,
			Quarantined:       faulted.Quarantined,
			CompileRetries:    faulted.CompileRetries,
			MeasureRetries:    faulted.MeasureRetries,
			JobRetries:        faulted.JobRetries,
			VerifyInvocations: faulted.VerifyInvocations,
		}
		if clean.TuningCycles > 0 {
			bar.Overhead = float64(faulted.TuningCycles) / float64(clean.TuningCycles)
		}
		bars = append(bars, bar)
	}
	return bars, nil
}

// FormatFaultReport renders the bars plus the recovery footer.
func FormatFaultReport(bars []FaultBar, machineName string, plan *fault.Plan) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Tuning under injected faults on %s (train dataset, fault seed %d,\nrates: compile-fail %.1f%%, miscompile %.2f%%, hang %.1f%%, job-panic %.1f%%):\n",
		machineName, plan.Seed, 100*plan.CompileFailRate, 100*plan.MiscompileRate,
		100*plan.HangRate, 100*plan.PanicRate)
	fmt.Fprintf(&sb, "%-22s %-6s %5s %14s %9s\n", "bar", "winner", "quar", "retries(c/m/j)", "overhead")
	same, quar, cRetry, mRetry, jRetry := 0, 0, 0, 0, 0
	var verifyInv int64
	for _, b := range bars {
		verdict := "DIFF"
		if b.Same {
			verdict = "SAME"
			same++
		}
		fmt.Fprintf(&sb, "%-22s %-6s %5d %14s %8.3fx\n",
			strings.ToLower(b.Benchmark)+"_"+b.Method.String(), verdict,
			len(b.Quarantined),
			fmt.Sprintf("%d/%d/%d", b.CompileRetries, b.MeasureRetries, b.JobRetries),
			b.Overhead)
		quar += len(b.Quarantined)
		cRetry += b.CompileRetries
		mRetry += b.MeasureRetries
		jRetry += b.JobRetries
		verifyInv += b.VerifyInvocations
	}
	fmt.Fprintf(&sb, "\n%d/%d bars picked the fault-free winner.\n", same, len(bars))
	fmt.Fprintf(&sb, "Recovery totals: %d flag(s) quarantined as miscompiled, %d compile retries,\n", quar, cRetry)
	fmt.Fprintf(&sb, "%d hung measurements killed and retried, %d panicked jobs re-run,\n", mRetry, jRetry)
	fmt.Fprintf(&sb, "%d verification invocations spent on golden-output checks.\n", verifyInv)
	return sb.String()
}
