// sections: the full PEAK pipeline of paper Figure 5, starting from a whole
// application rather than a pre-chosen kernel.
//
//  1. TS Selector (§4.1): profile the composite program and pick the
//     most time-consuming candidate sections.
//
//  2. Rating Approach Consultant: annotate each selected section.
//
//  3. Performance Tuning Driver: tune each section independently.
//
//     go run ./examples/sections
package main

import (
	"fmt"
	"log"
	"math/rand"

	"peak"
	"peak/internal/bench"
	"peak/internal/ir"
	"peak/internal/irbuild"
	"peak/internal/sim"
)

// buildApplication assembles a small "application": a 2D relaxation solver
// with three phases — a heavy stencil sweep, a medium residual reduction,
// and a cheap boundary fix-up.
func buildApplication() *peak.Composite {
	prog := ir.NewProgram()
	prog.AddArray("grid", ir.F64, 1600)
	prog.AddArray("res", ir.F64, 1600)

	sb := irbuild.NewFunc("sweep")
	sb.ScalarParam("n", ir.I64).Local("idx", ir.I64)
	prog.AddFunc(sb.Body(
		sb.For("i", sb.I(1), sb.Sub(sb.V("n"), sb.I(1)), 1,
			sb.For("j", sb.I(1), sb.Sub(sb.V("n"), sb.I(1)), 1,
				sb.Set(sb.V("idx"), sb.Add(sb.Mul(sb.V("i"), sb.V("n")), sb.V("j"))),
				sb.Set(sb.At("grid", sb.V("idx")),
					sb.FMul(sb.F(0.25),
						sb.FAdd(sb.FAdd(sb.At("grid", sb.Sub(sb.V("idx"), sb.I(1))),
							sb.At("grid", sb.Add(sb.V("idx"), sb.I(1)))),
							sb.FAdd(sb.At("grid", sb.Sub(sb.V("idx"), sb.V("n"))),
								sb.At("grid", sb.Add(sb.V("idx"), sb.V("n"))))))),
			),
		),
	))

	rb := irbuild.NewFunc("residual")
	rb.ScalarParam("n", ir.I64).Local("s", ir.F64)
	prog.AddFunc(rb.Body(
		rb.For("i", rb.I(0), rb.Mul(rb.V("n"), rb.V("n")), 1,
			rb.Set(rb.V("s"), rb.FAdd(rb.V("s"),
				rb.Call("abs", rb.FSub(rb.At("grid", rb.V("i")), rb.At("res", rb.V("i")))))),
			rb.Set(rb.At("res", rb.V("i")), rb.At("grid", rb.V("i"))),
		),
		rb.Ret(rb.V("s")),
	))

	bb := irbuild.NewFunc("boundary")
	bb.ScalarParam("n", ir.I64)
	prog.AddFunc(bb.Body(
		bb.For("i", bb.I(0), bb.V("n"), 1,
			bb.Set(bb.At("grid", bb.V("i")), bb.F(1)),
		),
	))

	return &peak.Composite{
		Name:           "RELAX",
		Prog:           prog,
		Candidates:     []string{"sweep", "residual", "boundary"},
		NumInvocations: 1200,
		Setup: func(mem *sim.Memory, rng *rand.Rand) {
			d := mem.Get("grid").Data
			for i := range d {
				d[i] = rng.Float64()
			}
		},
		Next: func(i int, mem *sim.Memory, rng *rand.Rand) (string, []float64) {
			switch i % 4 {
			case 0:
				return "sweep", []float64{36}
			case 1, 2:
				return "residual", []float64{20}
			default:
				return "boundary", []float64{36}
			}
		},
		NonTSCycles: 400_000,
	}
}

func main() {
	app := buildApplication()
	m := peak.SPARCII()

	stats, err := peak.SelectSections(app, m, peak.DefaultSelectorConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("TS Selector (paper §4.1):")
	for _, s := range stats {
		mark := " "
		if s.Selected {
			mark = "*"
		}
		fmt.Printf("  %s %-9s %6d invocations, %5.1f%% of program time\n",
			mark, s.Name, s.Invocations, 100*s.Share)
	}

	cfg := peak.DefaultConfig()
	for _, s := range stats {
		if !s.Selected {
			continue
		}
		b := app.Section(s.Name, bench.FP)
		prof, err := peak.ProfileBenchmark(b, nil, m)
		if err != nil {
			log.Fatal(err)
		}
		appl := peak.Consult(prof, &cfg)
		res, err := peak.Tune(b, m, nil, prof, nil, &cfg, peak.Env{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ntuned %s: consultant=%s method=%s removed=%v\n",
			s.Name, appl, res.MethodUsed, res.Removed)
	}
}
