// spec-tuning: a miniature of the paper's Figure-7 experiment.
//
// Tunes the paper's four evaluation benchmarks (SWIM, MGRID, ART, EQUAKE)
// on both simulated machines with the consultant-chosen rating method,
// then reports the improvement over "-O3" on the production (ref) dataset
// and the tuning cost. The full experiment (all method variants, WHL/AVG
// baselines, normalized tuning times) lives in cmd/peak-experiments.
//
//	go run ./examples/spec-tuning
package main

import (
	"fmt"
	"log"

	"peak"
)

func main() {
	cfg := peak.DefaultConfig()
	for _, m := range []*peak.Machine{peak.SPARCII(), peak.PentiumIV()} {
		fmt.Printf("=== %s ===\n", m.Name)
		fmt.Printf("%-8s %-8s %-10s %-14s %s\n",
			"bench", "method", "improve", "tuning-cycles", "flags removed")
		for _, name := range []string{"SWIM", "MGRID", "ART", "EQUAKE"} {
			b, ok := peak.BenchmarkByName(name)
			if !ok {
				log.Fatalf("missing benchmark %s", name)
			}
			res, err := peak.Tune(b, m, nil, nil, nil, &cfg, peak.Env{})
			if err != nil {
				log.Fatalf("%s: %v", name, err)
			}
			base, _, err := peak.Measure(b, b.Ref, m, peak.O3())
			if err != nil {
				log.Fatal(err)
			}
			tuned, _, err := peak.Measure(b, b.Ref, m, res.Best)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-8s %-8s %9.1f%% %-14d %v\n",
				name, res.MethodUsed.String(),
				100*peak.Improvement(base, tuned), res.TuningCycles, res.Removed)
		}
		fmt.Println()
	}
}
