// Command peak-experiments regenerates the paper's Figure 7: performance
// improvement over "-O3" (panels a, b) and tuning time normalized to the
// whole-program WHL baseline (panels c, d), for SWIM, MGRID, ART and EQUAKE
// under every forceable rating method plus the WHL and AVG baselines.
//
// With -table1 it instead regenerates the paper's Table 1
// (results_table1_<machine>.txt): the rating consistency (mean and standard
// deviation of rating errors, ×100) of the consultant-chosen method for
// every benchmark, across window sizes w = 10, 20, 40, 80, 160; -regime
// reruns it under a noise regime.
//
// With -noise it instead regenerates the noise-sensitivity report
// (results_noise.txt): rating consistency and winner-picking reliability
// under the baseline, gauss4x, spikes, drift and bursts noise regimes.
//
// With -faults it regenerates the robustness report (results_faults.txt):
// the Figure-7 tuning protocol re-run under deterministic fault injection
// (compile failures, miscompiles, measurement hangs, job panics), each
// bar's winner compared against its fault-free twin.
//
// Long runs can checkpoint after every tuning round with -checkpoint; a
// killed run is continued bit-for-bit with -resume (same flags otherwise).
// On SIGINT the journal is synced and the resume command printed before
// exiting with status 130. On any error the results computed so far are
// still flushed before the nonzero exit.
//
// Usage:
//
//	peak-experiments                  # both machines (fig 7 a–d)
//	peak-experiments -machine p4      # one machine
//	peak-experiments -workers 8       # sharded; output identical to -workers 1
//	peak-experiments -headline        # the abstract's summary numbers
//	peak-experiments -table1 -machine sparc2         # Table 1
//	peak-experiments -table1 -regime spikes          # Table 1 under a noise regime
//	peak-experiments -noise           # rating error vs noise regime
//	peak-experiments -faults          # tuning under injected faults
//	peak-experiments -checkpoint run.jsonl   # journal every round
//	peak-experiments -resume run.jsonl       # continue a killed run
//	peak-experiments -trace fig7.jsonl       # record a trace (analyze: peak-trace)
//	peak-experiments -metrics                # print the metrics table to stderr
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"peak"
	"peak/internal/cli"
	"peak/internal/experiments"
	"peak/internal/sched"
	"peak/internal/store"
)

func main() {
	machName := flag.String("machine", "", `machine: "sparc2", "p4", or empty for both`)
	workers := flag.Int("workers", 1, "parallel workers (0 = GOMAXPROCS); any value gives identical output")
	progress := flag.Bool("progress", false, "print live scheduler status and a final utilization summary")
	headline := flag.Bool("headline", false, "also print the paper-abstract summary numbers")
	table1 := flag.Bool("table1", false, "regenerate the Table-1 rating-consistency experiment instead of Figure 7")
	regimeName := flag.String("regime", "", "noise regime for -table1 (baseline, gauss4x, spikes, drift, bursts); empty = machine default")
	noiseRep := flag.Bool("noise", false, "regenerate the noise-sensitivity report instead of Figure 7")
	noCache := flag.Bool("nocache", false, "disable the compile cache (A/B check; output is identical either way)")
	cacheStats := flag.Bool("cachestats", false, "print compile-cache statistics to stderr (Figure 7 mode)")
	faultsRep := flag.Bool("faults", false, "regenerate the fault-injection robustness report instead of Figure 7")
	faultRate := flag.Float64("faultrate", 0.05, "uniform fault rate for -faults (miscompiles injected at rate/10)")
	faultSeed := flag.Int64("faultseed", 2023, "fault-injection seed for -faults")
	checkpoint := flag.String("checkpoint", "", "checkpoint journal path: save resumable state after every tuning round")
	resume := flag.String("resume", "", "resume from an existing checkpoint journal (pass the same other flags)")
	tracePath := flag.String("trace", "", "write a JSONL event trace to this file (analyze with peak-trace)")
	metrics := flag.Bool("metrics", false, "print the metrics table to stderr after the run")
	cacheDir := flag.String("cache-dir", "", "persistent warm-start store for -noise: grid cells memoize across runs (output identical either way)")
	flag.Parse()

	var machines []*peak.Machine
	switch *machName {
	case "":
		machines = []*peak.Machine{peak.SPARCII(), peak.PentiumIV()}
	default:
		m, ok := peak.MachineByName(*machName)
		if !ok {
			fmt.Fprintf(os.Stderr, "peak-experiments: unknown machine %q\n", *machName)
			os.Exit(1)
		}
		machines = []*peak.Machine{m}
	}

	// -resume requires an existing journal; -checkpoint reuses one if the
	// file already holds state (so a killed -checkpoint run can simply be
	// re-invoked) and creates it otherwise.
	journalPath := *checkpoint
	if *resume != "" {
		journalPath = *resume
	}
	var journal *peak.Journal
	if journalPath != "" {
		var err error
		if _, statErr := os.Stat(journalPath); statErr == nil {
			journal, err = peak.OpenJournal(journalPath)
		} else if *resume != "" {
			err = fmt.Errorf("-resume %s: %w", journalPath, statErr)
		} else {
			journal, err = peak.NewJournal(journalPath)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "peak-experiments: %v\n", err)
			os.Exit(1)
		}
	}

	pool := peak.NewPool(*workers)
	stopProgress := func() {}
	if *progress {
		stopProgress = sched.StartProgress(os.Stderr, pool, time.Second)
	}
	obs := cli.NewObserver(*tracePath, *metrics, os.Stderr)
	// A SIGINT mid-run flushes the partial trace and — when a journal is
	// attached, the checkpoint layer's reason to exist — syncs it and
	// tells the user how to continue.
	obs.FlushOnInterrupt(os.Stderr, "peak-experiments", func() {
		if journal == nil {
			return
		}
		journal.Sync()
		fmt.Fprintf(os.Stderr, "\npeak-experiments: interrupted; checkpoint journal %s synced\n", journalPath)
		fmt.Fprintf(os.Stderr, "peak-experiments: continue with: peak-experiments -resume %s (plus the same flags)\n", journalPath)
	})
	finish := func(code int) {
		stopProgress()
		if *progress {
			fmt.Fprintln(os.Stderr, pool.Stats().Summary(pool.Workers()))
		}
		pool.Stats().FillMetrics(obs.Mx, pool.Workers())
		if journal != nil {
			journal.FillMetrics(obs.Mx)
			journal.Sync()
			journal.Close()
			if code != 0 {
				fmt.Fprintf(os.Stderr, "peak-experiments: continue with: peak-experiments -resume %s (plus the same flags)\n", journalPath)
			}
		}
		// A partial trace of a failed run is still a valid trace.
		if err := obs.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "peak-experiments: trace: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
		os.Exit(code)
	}

	cfg := peak.DefaultConfig()
	cfg.NoCompileCache = *noCache
	env := peak.Env{Pool: pool, Journal: journal, Trace: obs.Buf, Metrics: obs.Mx}
	// One compile cache shared across machines: compilations are keyed by
	// machine, so nothing collides, and the -cachestats summary covers the
	// whole run. Output is byte-identical with or without it.
	if !*noCache {
		env.Cache = peak.NewVersionCache()
	}

	if *table1 {
		for i, m := range machines {
			c := cfg
			if *regimeName != "" {
				regime, ok := peak.NoiseRegimeByName(m, *regimeName)
				if !ok {
					fmt.Fprintf(os.Stderr, "peak-experiments: unknown noise regime %q\n", *regimeName)
					finish(1)
				}
				c.Noise = &regime.Model
			}
			rows, err := peak.Table1(m, &c, env)
			if i > 0 {
				fmt.Println()
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "peak-experiments: %v\n", err)
				if len(rows) > 0 {
					fmt.Fprintf(os.Stderr, "peak-experiments: flushing %d partial row(s)\n", len(rows))
					fmt.Print(experiments.FormatTable1(rows, experiments.PaperWindows))
				}
				finish(1)
			}
			fmt.Printf("Table 1: consistency of rating approaches on %s\n", m.Name)
			fmt.Println("(numbers are Mean(StdDev) of the rating error, multiplied by 100)")
			fmt.Print(experiments.FormatTable1(rows, experiments.PaperWindows))
		}
		finish(0)
	}

	if *noiseRep {
		// The warm-start store memoizes grid cells across runs; the report
		// bytes are identical with the store absent, cold or warm.
		if *cacheDir != "" {
			var err error
			if env.Store, err = store.Open(*cacheDir); err != nil {
				fmt.Fprintf(os.Stderr, "peak-experiments: %v\n", err)
				finish(1)
			}
		}
		for i, m := range machines {
			report, err := experiments.NoiseReport(peak.Benchmarks(), m, &cfg, env)
			if err != nil {
				fmt.Fprintf(os.Stderr, "peak-experiments: %v\n", err)
				finish(1)
			}
			if i > 0 {
				fmt.Println()
			}
			fmt.Print(report)
		}
		if st := env.Store; st != nil {
			if err := st.Flush(); err != nil {
				fmt.Fprintf(os.Stderr, "peak-experiments: store flush: %v\n", err)
				finish(1)
			}
			ss := st.Stats()
			fmt.Fprintf(os.Stderr, "peak-experiments: store: %d cell memo hit(s), %d new record(s) flushed\n",
				ss.MemoHits, ss.Pending)
		}
		finish(0)
	}

	if *faultsRep {
		plan := peak.UniformFaults(*faultRate, *faultSeed)
		cfg.Faults = plan
		for i, m := range machines {
			bars, err := experiments.FaultReport(peak.Figure7Benchmarks(), m, &cfg, env)
			if i > 0 {
				fmt.Println()
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "peak-experiments: %v\n", err)
				if len(bars) > 0 {
					fmt.Fprintf(os.Stderr, "peak-experiments: flushing %d completed bar(s)\n", len(bars))
					fmt.Print(experiments.FormatFaultReport(bars, m.Name, plan))
				}
				finish(1)
			}
			fmt.Print(experiments.FormatFaultReport(bars, m.Name, plan))
		}
		finish(0)
	}

	var all []peak.Fig7Entry
	for _, m := range machines {
		entries, err := experiments.Figure7(peak.Figure7Benchmarks(), m, &cfg, env)
		if err != nil {
			fmt.Fprintf(os.Stderr, "peak-experiments: %v\n", err)
			if len(entries) > 0 {
				fmt.Fprintf(os.Stderr, "peak-experiments: flushing %d completed entr(ies)\n", len(entries))
				fmt.Print(experiments.FormatFigure7(entries, m.Name))
			}
			finish(1)
		}
		fmt.Print(experiments.FormatFigure7(entries, m.Name))
		fmt.Println()
		all = append(all, entries...)
	}
	if cache := env.Cache; cache != nil {
		if *cacheStats {
			fmt.Fprintln(os.Stderr, cache.Stats().Summary())
		}
		cache.Stats().FillMetrics(obs.Mx)
	}

	if *headline {
		h := experiments.Summarize(all)
		fmt.Printf("Headline (PEAK-chosen methods, tuned on train):\n")
		fmt.Printf("  performance improvement: up to %.0f%% (%.0f%% on average)\n",
			100*h.MaxImprovement, 100*h.AvgImprovement)
		fmt.Printf("  tuning-time reduction vs WHL: up to %.0f%% (%.0f%% on average)\n",
			100*h.MaxReduction, 100*h.AvgReduction)
	}
	finish(0)
}
