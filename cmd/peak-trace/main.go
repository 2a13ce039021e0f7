// Command peak-trace analyzes a JSONL event trace recorded with the
// -trace flag of peak or peak-experiments (any mode, -table1 included).
// It prints two digests per tuning process in the trace:
//
//   - a time-breakdown table ("Where tuning time goes"): total simulated
//     tuning cycles decomposed into rating, fault-retry, verification and
//     overhead shares, plus compile-cache, dedup and search counts;
//   - a per-flag elimination timeline: for every Iterative Elimination
//     round, the candidates entering it, the ratings it spent, and which
//     flag it removed at what gated improvement.
//
// Events outside a tuning process (grid cells, winner trials, peak-bench
// wall-clock phases) are ignored; OBSERVABILITY.md's cookbook walks
// through reading both digests.
//
// Usage:
//
//	peak -bench ART -machine p4 -trace art.jsonl && peak-trace art.jsonl
//	peak-trace -breakdown fig7.jsonl    # time table only
//	peak-trace -timeline fig7.jsonl     # timelines only
//	peak-trace -                        # read the trace from stdin
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"peak/internal/trace"
)

func main() {
	breakdown := flag.Bool("breakdown", false, "print only the time-breakdown table")
	timeline := flag.Bool("timeline", false, "print only the elimination timelines")
	flag.Parse()
	if flag.NArg() != 1 {
		fatalf("usage: peak-trace [-breakdown|-timeline] <trace.jsonl | ->")
	}

	var r io.Reader = os.Stdin
	if path := flag.Arg(0); path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		r = f
	}
	events, err := trace.ReadEvents(r)
	if err != nil {
		fatalf("%v", err)
	}
	a := trace.Analyze(events)
	if len(a.Breakdowns) == 0 {
		fmt.Printf("no tuning processes in trace (%d events)\n", len(events))
		return
	}

	// Both flags unset means both digests, matching the usual "give me
	// everything" invocation.
	both := *breakdown == *timeline
	if both || *breakdown {
		fmt.Print(trace.FormatBreakdown(a.Breakdowns))
	}
	if both || *timeline {
		if both {
			fmt.Println()
		}
		fmt.Print(trace.FormatTimeline(a.Timelines))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "peak-trace: "+format+"\n", args...)
	os.Exit(1)
}
