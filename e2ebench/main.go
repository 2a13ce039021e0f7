// Command e2ebench is the repository's end-to-end benchmark. It measures
// the system the way its users drive it: tuning jobs submitted to an
// in-process peak-serve over real loopback HTTP (serve-cold, serve-warm),
// and the paper's Table-1 consistency experiment (table1). Every workload
// checks its outputs — job reports against committed golden digests, Table 1
// against results_table1_{sparc2,p4}.txt — and prints one JSON result as the
// last line of standard output.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash e2ebench/run.sh --workload serve-cold --seed 1 --seconds 30 --trace 0
//	go -C e2ebench run . -workload all -seed 1 -root ..
//	go -C e2ebench run . -workload serve-warm -trace 1 -o warm.json -root ..
//
// With -trace 0 the result holds the end-to-end metrics; with -trace 1 a
// traced replay of the same seeded requests gives the per-layer metrics.
// README.md lists the workloads, metrics and the internal calls the
// harness depends on.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line printed last on standard output, the one tools
// that run the benchmark read.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is a run's full record (-o): the result plus the samples behind
// it, failures and, when traced, the spans.
type report struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	Passes   int    `json:"passes"`
	result
	// LatencyMS summarizes the job latencies, SetupS the set-ups, both
	// scaled to the reference host.
	LatencyMS summary `json:"latency_ms"`
	SetupS    summary `json:"setup_s"`
	// Info holds figures that are not metrics (prepare time, wall times).
	Info     map[string]float64 `json:"info"`
	Problems []string           `json:"problems,omitempty"`
	Spans    []span             `json:"spans,omitempty"`
}

// add records a metric. A value with no samples behind it (NaN, only when
// every request failed) is recorded as 0 so the failed result still prints.
func (r *report) add(name string, value float64, unit string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// fail records one failed request.
func (r *report) fail(problem string) {
	r.Failed++
	r.Problems = append(r.Problems, problem)
}

// runConfig is one workload run's parameters. size caps a pass at that many
// requests (table1: benchmarks per machine); 0 runs the full catalog — the
// smoke test passes a small size.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	size     int
	workDir  string
	root     string
}

// another reports whether a run that has made done fixed-size passes in
// elapsed seconds makes one more: always until minPasses, then while
// another pass of the mean length still ends within the run length. A
// traced run makes one pass.
func (c runConfig) another(done int, elapsed float64, minPasses int) bool {
	switch {
	case c.traced:
		return done == 0
	case done < minPasses:
		return true
	}
	return elapsed+elapsed/float64(done) <= c.seconds
}

var workloadNames = []string{"serve-cold", "serve-warm", "table1"}

func runWorkload(cfg runConfig) (*report, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, cfg.workload+"-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.workDir = dir
	r := &report{Workload: cfg.workload, Seed: cfg.seed, Traced: cfg.traced, Info: map[string]float64{},
		result: result{Metrics: map[string]metric{}}}
	switch cfg.workload {
	case "serve-cold", "serve-warm":
		err = runServe(cfg, r)
	case "table1":
		err = runTable1(cfg, r)
	default:
		err = fmt.Errorf("unknown workload %q (want %s or all)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	r.Correct = r.Failed == 0
	return r, nil
}

func main() {
	var (
		workload = flag.String("workload", "", "serve-cold, serve-warm, table1 or all")
		seed     = flag.Int64("seed", 1, "seed of the request order")
		seconds  = flag.Float64("seconds", 30, "run length: passes over the fixed request set repeat while another fits")
		traceOn  = flag.Int("trace", 0, "1 = traced replay, printing the per-layer metrics instead of the end-to-end ones")
		out      = flag.String("o", "", "also write the full run record (samples, problems, spans) as JSON to this file")
		workDir  = flag.String("workdir", filepath.Join(".bench_build", "e2ebench-work"), "working directory for stores and journals (removed after the run)")
		root     = flag.String("root", ".", "repository root (for results_table1_*.txt)")
		goldOut  = flag.String("write-golden", "", "replay every catalog spec and write its golden digests to this file, then exit")
	)
	flag.Parse()
	if os.Getenv(canaryEnv) != "" {
		canaryChild()
		return
	}
	if *traceOn != 0 && *traceOn != 1 {
		fatalf("-trace %d: want 0 or 1", *traceOn)
	}
	if *goldOut != "" {
		if err := writeGolden(*goldOut, *workDir); err != nil {
			fatalf("write-golden: %v", err)
		}
		return
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	var reports []*report
	correct := true
	for _, name := range names {
		r, err := runWorkload(runConfig{workload: name, seed: *seed, seconds: *seconds, traced: *traceOn == 1,
			workDir: *workDir, root: *root})
		if err != nil {
			fatalf("%v", err)
		}
		printSummary(r)
		line, err := json.Marshal(r.result)
		if err != nil {
			fatalf("encode result: %v", err)
		}
		fmt.Println(string(line))
		reports = append(reports, r)
		correct = correct && r.Correct
	}
	if *out != "" {
		var v any = reports
		if len(reports) == 1 {
			v = reports[0]
		}
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			fatalf("encode report: %v", err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatalf("%v", err)
		}
	}
	if !correct {
		os.Exit(1)
	}
}

// printSummary writes a readable table of the run to standard error.
func printSummary(r *report) {
	verdict := "outputs correct"
	if !r.Correct {
		verdict = "OUTPUTS WRONG"
	}
	fmt.Fprintf(os.Stderr, "e2ebench %s seed=%d passes=%d traced=%v: %d attempted, %d failed, %s\n",
		r.Workload, r.Seed, r.Passes, r.Traced, r.Attempted, r.Failed, verdict)
	for i, p := range r.Problems {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "  ... %d more problems\n", len(r.Problems)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "  problem: %s\n", p)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(os.Stderr, "  %-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
	if l := r.LatencyMS; l.N > 0 {
		fmt.Fprintf(os.Stderr, "  scaled job latency ms: median %.3f, quartiles %.3f..%.3f, n=%d, tail p%d %.3f\n",
			l.Median, l.Q1, l.Q3, l.N, l.TailPct, l.Tail)
	}
	if s := r.SetupS; s.N > 0 {
		fmt.Fprintf(os.Stderr, "  scaled setup s: median %.6f, quartiles %.6f..%.6f, n=%d\n", s.Median, s.Q1, s.Q3, s.N)
	}
	info := make([]string, 0, len(r.Info))
	for name := range r.Info {
		info = append(info, name)
	}
	sort.Strings(info)
	for _, name := range info {
		fmt.Fprintf(os.Stderr, "  (%s = %.6g)\n", name, r.Info[name])
	}
}

// retainedMB is the memory the process keeps resident after a pass: it
// collects the garbage, returns the freed pages to the OS and reads VmRSS
// (0 where /proc/self/status cannot be read). What a loaded Go heap holds
// at any moment moves with GC timing and with the order the pass ran its
// jobs in; what it retains once the pass is done — the server's store,
// caches and job records, the runtime — does not.
func retainedMB() float64 {
	debug.FreeOSMemory()
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
	os.Exit(2)
}
