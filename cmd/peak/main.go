// Command peak tunes one workload benchmark on a simulated machine with the
// PEAK engine and reports the winning flag combination and its measured
// improvement over "-O3".
//
// Usage:
//
//	peak -bench ART -machine p4 [-method RBR] [-dataset train] [-workers 8] [-v]
//	peak -bench SWIM -noise spikes    # tune under a stress noise regime
//	peak -bench ART -trace art.jsonl  # record a trace (analyze: peak-trace)
//	peak -bench ART -metrics          # print the metrics table to stderr
//	peak -list
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"peak"
	"peak/internal/cli"
	"peak/internal/opt"
	"peak/internal/sched"
)

func main() {
	var (
		benchName = flag.String("bench", "ART", "benchmark name (see -list)")
		machName  = flag.String("machine", "p4", `machine: "sparc2" or "p4"`)
		method    = flag.String("method", "", "force rating method (CBR, MBR, RBR, AVG, WHL); empty = consultant choice")
		dataset   = flag.String("dataset", "train", `tuning dataset: "train" or "ref"`)
		noiseName = flag.String("noise", "", "noise regime (baseline, gauss4x, spikes, drift, bursts); empty = machine default")
		workers   = flag.Int("workers", 1, "parallel rating workers (0 = GOMAXPROCS); any value gives identical results")
		progress  = flag.Bool("progress", false, "print live scheduler status and a final utilization summary")
		list      = flag.Bool("list", false, "list benchmarks and exit")
		listFlags = flag.Bool("list-flags", false, "list the 38 tunable optimization flags and exit")
		noCache   = flag.Bool("nocache", false, "disable the compile cache (output is byte-identical either way)")
		faults    = flag.Bool("faults", false, "tune under injected faults (compile failures, miscompiles, hangs, panics)")
		faultRate = flag.Float64("faultrate", 0.05, "uniform fault rate for -faults (miscompiles injected at rate/10)")
		faultSeed = flag.Int64("faultseed", 2023, "fault-injection seed for -faults")
		tracePath = flag.String("trace", "", "write a JSONL event trace of the tune to this file (analyze with peak-trace)")
		metrics   = flag.Bool("metrics", false, "print the metrics table to stderr after the tune")
		verbose   = flag.Bool("v", false, "print profile and consultant details")
	)
	flag.Parse()

	if *list {
		fmt.Println("Available benchmarks (paper Table 1):")
		for _, b := range peak.Benchmarks() {
			fmt.Printf("  %-8s %-18s %s  (paper: %s invocations)\n",
				b.Name, b.TSName, b.Class, b.PaperInvocations)
		}
		return
	}
	if *listFlags {
		fmt.Println("The 38 -O3 optimization flags PEAK tunes (GCC 3.3 names):")
		for _, f := range opt.AllFlags() {
			fmt.Printf("  -f%-26s %s\n", f.String(), opt.FlagDoc(f))
		}
		return
	}

	b, ok := peak.BenchmarkByName(*benchName)
	if !ok {
		fatalf("unknown benchmark %q (try -list)", *benchName)
	}
	m, ok := peak.MachineByName(*machName)
	if !ok {
		fatalf("unknown machine %q", *machName)
	}
	ds := b.Train
	if *dataset == "ref" {
		ds = b.Ref
	}

	cfg := peak.DefaultConfig()
	cfg.NoCompileCache = *noCache
	if *faults {
		cfg.Faults = peak.UniformFaults(*faultRate, *faultSeed)
	}
	if *noiseName != "" {
		regime, ok := peak.NoiseRegimeByName(m, *noiseName)
		if !ok {
			fatalf("unknown noise regime %q", *noiseName)
		}
		cfg.Noise = &regime.Model
	}
	var force *peak.Method
	if *method != "" {
		mm, ok := peak.ParseMethodName(*method)
		if !ok {
			fatalf("unknown method %q", *method)
		}
		force = &mm
	}
	// The profile of the tuning dataset both feeds -v and seeds the tune.
	prof, err := peak.ProfileBenchmark(b, ds, m)
	if err != nil {
		fatalf("profile: %v", err)
	}
	app := peak.Consult(prof, &cfg)
	if *verbose {
		fmt.Printf("profile: %d invocations, %d contexts (dominant share %.1f%%), mean %.0f cycles\n",
			prof.Invocations, prof.NumContexts(), 100*prof.DominantShare(), prof.MeanCycles)
		if prof.Model != nil {
			fmt.Printf("model: %d components, profile fit VAR %.4f\n",
				len(prof.Model.Components), prof.ModelVar)
		}
		fmt.Printf("consultant: applicable methods %s", app)
		if app.CBRReason != "" {
			fmt.Printf(" (CBR rejected: %s)", app.CBRReason)
		}
		if app.MBRReason != "" {
			fmt.Printf(" (MBR rejected: %s)", app.MBRReason)
		}
		fmt.Println()
	}

	pool := peak.NewPool(*workers)
	stopProgress := func() {}
	if *progress {
		stopProgress = sched.StartProgress(os.Stderr, pool, time.Second)
	}
	obs := cli.NewObserver(*tracePath, *metrics, os.Stderr)
	// A SIGINT mid-tune flushes the events recorded so far instead of
	// losing the whole buffer (Observer.Flush is idempotent, so the normal
	// exit path below stays a no-op after an interrupt-time flush).
	obs.FlushOnInterrupt(os.Stderr, "peak", nil)

	res, err := peak.Tune(b, m, ds, prof, force, &cfg, peak.Env{Pool: pool, Trace: obs.Buf, Metrics: obs.Mx})
	if err != nil {
		fatalf("tune: %v", err)
	}
	stopProgress()
	if *progress {
		fmt.Fprintln(os.Stderr, pool.Stats().Summary(pool.Workers()))
	}
	pool.Stats().FillMetrics(obs.Mx, pool.Workers())
	if err := obs.Flush(); err != nil {
		fatalf("trace: %v", err)
	}

	base, _, err := peak.Measure(b, b.Ref, m, peak.O3())
	if err != nil {
		fatalf("measure base: %v", err)
	}
	tuned, _, err := peak.Measure(b, b.Ref, m, res.Best)
	if err != nil {
		fatalf("measure tuned: %v", err)
	}
	// The report block is rendered by the same function peak-serve uses
	// for its job reports, keeping the two byte-identical for the same
	// arguments (the serve smoke check relies on this).
	fmt.Print(cli.FormatTuneReport(b, m, res, *faults, base, tuned))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "peak: "+format+"\n", args...)
	os.Exit(1)
}
