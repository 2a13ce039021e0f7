// Quickstart: tune one of the built-in workloads end to end.
//
// This walks the whole PEAK pipeline from the public API: profile the
// tuning section, ask the Rating Approach Consultant which rating method
// applies, run the Iterative Elimination search, and measure the tuned
// version against "-O3" on the production (ref) dataset.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"peak"
)

func main() {
	b, ok := peak.BenchmarkByName("ART")
	if !ok {
		log.Fatal("ART benchmark missing")
	}
	if err := peak.Validate(b); err != nil {
		log.Fatal(err)
	}
	m := peak.PentiumIV()

	// 1. Offline profile run (paper §3): contexts, components, timing.
	prof, err := peak.ProfileBenchmark(b, nil, m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profiled %s/%s on %s: %d invocations, mean %.0f cycles\n",
		b.Name, b.TSName, m.Name, prof.Invocations, prof.MeanCycles)

	// 2. The consultant picks the rating method (Table 1's "Approach").
	cfg := peak.DefaultConfig()
	app := peak.Consult(prof, &cfg)
	fmt.Printf("consultant: %s", app)
	if app.CBRReason != "" {
		fmt.Printf("  (CBR rejected: %s)", app.CBRReason)
	}
	fmt.Println()

	// 3. Tune: Iterative Elimination over the 38 -O3 flags, rating each
	// candidate version with the chosen method, on the training dataset
	// the profile was taken over.
	res, err := peak.Tune(b, m, nil, prof, nil, &cfg, peak.Env{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tuned with %s: removed %v in %d rounds (%d versions rated)\n",
		res.MethodUsed, res.Removed, res.Rounds, res.VersionsRated)

	// 4. Evaluate on the production dataset, like the paper's Figure 7.
	base, _, err := peak.Measure(b, b.Ref, m, peak.O3())
	if err != nil {
		log.Fatal(err)
	}
	tuned, _, err := peak.Measure(b, b.Ref, m, res.Best)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ref dataset: -O3 = %d cycles, tuned = %d cycles  =>  %.1f%% improvement\n",
		base, tuned, 100*peak.Improvement(base, tuned))
}
