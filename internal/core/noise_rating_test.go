package core

import (
	"math/rand"
	"testing"

	"peak/internal/machine"
	"peak/internal/noise"
	"peak/internal/opt"
	"peak/internal/profiling"
	"peak/internal/stats"
)

// TestEscalationToRBR: a CBR candidate rating whose confidence interval
// stays wide past the escalation budget must be escalated to RBR mid-job,
// and the escalation must be visible in the job result.
func TestEscalationToRBR(t *testing.T) {
	b := tinyBenchmark()
	m := machine.SPARCII()
	p, err := profiling.Run(b, b.Train, m)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.CIRelThreshold = 1e-12 // unattainable: CBR can never converge
	cfg.EscalationBudget = 40
	cfg.MaxInvPerVersion = 120
	tu := &Tuner{Bench: b, Mach: m, Dataset: b.Train, Cfg: cfg, Profile: p}
	e, err := tu.newEngine()
	if err != nil {
		t.Fatal(err)
	}

	flags := opt.AllFlags()
	res := e.rateJob("test/esc", MethodCBR, opt.O3().Without(flags[0]), opt.O3(), true)
	if res.err != nil {
		t.Fatal(res.err)
	}
	if !res.escalated {
		t.Fatal("CBR rating past the escalation budget did not escalate")
	}
	if res.rating.Method != MethodRBR {
		t.Errorf("escalated rating method = %s, want RBR", res.rating.Method)
	}

	// The base rating and forced-method jobs must never escalate.
	res = e.rateJob("test/noesc", MethodCBR, opt.O3().Without(flags[0]), opt.O3(), false)
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.escalated || res.rating.Method != MethodCBR {
		t.Errorf("non-escalatable job escalated (method %s)", res.rating.Method)
	}

	// A negative budget disables escalation entirely.
	cfg.EscalationBudget = -1
	tu2 := &Tuner{Bench: b, Mach: m, Dataset: b.Train, Cfg: cfg, Profile: p}
	e2, err := tu2.newEngine()
	if err != nil {
		t.Fatal(err)
	}
	res = e2.rateJob("test/disabled", MethodCBR, opt.O3().Without(flags[0]), opt.O3(), true)
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.escalated {
		t.Error("escalation fired despite a negative budget")
	}
}

// TestEscalationRecordedInLedger: under noise heavy enough that no CBR
// rating converges, a full Tune must log the escalations it performed.
func TestEscalationRecordedInLedger(t *testing.T) {
	b := tinyBenchmark()
	m := machine.SPARCII()
	p, err := profiling.Run(b, b.Train, m)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Noise = &noise.Model{Jitter: 0.2} // ~20% jitter: CIs stay wide
	cfg.MaxInvPerVersion = 120
	cfg.EscalationBudget = 40
	app := Consult(p, &cfg)
	if app.Chosen() != MethodCBR {
		t.Skipf("consultant chose %s; escalation path needs CBR first", app.Chosen())
	}
	tu := &Tuner{Bench: b, Mach: m, Dataset: b.Train, Cfg: cfg, Profile: p}
	res, err := tu.Tune()
	if err != nil {
		t.Fatal(err)
	}
	if res.Escalations == 0 {
		t.Error("no escalations recorded under 20% jitter")
	}
	if len(res.EscalatedFlags) != res.Escalations {
		t.Errorf("EscalatedFlags has %d entries for %d escalations",
			len(res.EscalatedFlags), res.Escalations)
	}
}

// TestRatingAbandonedPropagates: when outlier rejection gives up on a
// contaminated window, the resulting Rating must say so.
func TestRatingAbandonedPropagates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.OutlierK = 1e-4
	var ms meanSamples
	for _, v := range []float64{0, 100, 200, 300} {
		ms.add(v)
	}
	if r := ms.evalVar(&cfg, MethodAVG); !r.Abandoned {
		t.Error("contaminated window did not surface Abandoned")
	}

	cfg = DefaultConfig()
	var clean meanSamples
	for i := 0; i < cfg.Window; i++ {
		clean.add(100 + float64(i%3))
	}
	if r := clean.evalVar(&cfg, MethodAVG); r.Abandoned {
		t.Error("clean window reported Abandoned")
	}
}

// TestMeanSamplesCacheStaysFresh: the cached filtered view must be
// indistinguishable from filtering from scratch, at every sample count and
// in any interleaving of evalVar and meanConverged calls.
func TestMeanSamplesCacheStaysFresh(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Window = 8
	rng := rand.New(rand.NewSource(3))
	var cached meanSamples
	for i := 0; i < 200; i++ {
		x := 1000 * (1 + rng.NormFloat64()*0.05)
		if rng.Float64() < 0.1 {
			x *= 5
		}
		cached.add(x)
		// Exercise both cache consumers between additions.
		if i%3 == 0 {
			cached.meanConverged(&cfg)
		}
		got := cached.evalVar(&cfg, MethodAVG)
		fresh := meanSamples{samples: cached.samples}
		want := fresh.evalVar(&cfg, MethodAVG)
		if got != want {
			t.Fatalf("sample %d: cached rating %+v != fresh %+v", i, got, want)
		}
		if cached.meanConverged(&cfg) != fresh.meanConverged(&cfg) {
			t.Fatalf("sample %d: cached convergence diverges from fresh", i)
		}
	}
}

// TestCIPicksFewerWrongWinners is the acceptance check for the CI upgrade:
// under the heavy-spike regime, significance-gated (ConvergeCI) winner
// picking adopts a truly worse experimental version strictly less often
// than legacy raw-mean (ConvergeStdErr) picking on the same seeds — i.e.
// on identical measurement streams.
func TestCIPicksFewerWrongWinners(t *testing.T) {
	model := noise.HeavySpikes(0.012, 0.05, 4)
	const (
		trials     = 40
		baseCycles = 1_000_000
		margin     = 0.002
		seed       = 9
	)
	// ImprovementThreshold 0 isolates the decision rule itself: adopt on
	// any measured win (the raw-mean comparison the CI mode replaces).
	mk := func(mode ConvergenceMode) Config {
		cfg := DefaultConfig()
		cfg.Convergence = mode
		cfg.ImprovementThreshold = 0
		return cfg
	}
	cfgCI, cfgSE := mk(ConvergeCI), mk(ConvergeStdErr)
	ci := RunWinnerTrials(&cfgCI, model, seed, trials, baseCycles, margin)
	se := RunWinnerTrials(&cfgSE, model, seed, trials, baseCycles, margin)
	t.Logf("CI: %+v", ci)
	t.Logf("SE: %+v", se)

	if se.WrongAdopts == 0 {
		t.Fatal("trial parameters too easy: stderr mode made no mistakes")
	}
	if ci.WrongAdopts >= se.WrongAdopts {
		t.Errorf("CI wrong adopts = %d, not strictly below stderr's %d",
			ci.WrongAdopts, se.WrongAdopts)
	}
}

// TestWinnerTrialDeterministic: a trial is a pure function of its inputs.
func TestWinnerTrialDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	model := noise.HeavySpikes(0.012, 0.05, 4)
	w1, n1 := WinnerTrial(&cfg, model, 123, 1_000_000, 1_002_000)
	w2, n2 := WinnerTrial(&cfg, model, 123, 1_000_000, 1_002_000)
	if w1 != w2 || n1 != n2 {
		t.Error("WinnerTrial is not deterministic")
	}
}

// BenchmarkMeanSamplesConvergence measures the cached convergence check
// against the pre-cache behaviour (a fresh outlier filter per call). The
// cached path matters most for CBR on many-context sections, where most
// invocations add no sample yet the engine still polls convergence.
func BenchmarkMeanSamplesConvergence(b *testing.B) {
	cfg := DefaultConfig()
	mkSamples := func() []float64 {
		rng := rand.New(rand.NewSource(5))
		xs := make([]float64, 400)
		for i := range xs {
			xs[i] = 1000 * (1 + rng.NormFloat64()*0.012)
		}
		return xs
	}

	b.Run("cached", func(b *testing.B) {
		ms := meanSamples{samples: mkSamples()}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ms.meanConverged(&cfg)
		}
	})
	b.Run("uncached", func(b *testing.B) {
		samples := mkSamples()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// The pre-cache implementation: full filter on every check.
			kept, _, _ := stats.RejectOutliers(samples, cfg.OutlierK)
			m := stats.Mean(kept)
			half := stats.MeanCIHalf(stats.Variance(kept), len(kept), cfg.confidence())
			_ = half/m < cfg.ciRelThreshold()
		}
	})
	// growing is the engine's pattern: Window/8 new samples between
	// checks, up to MaxInvPerVersion, so every check refilters. One
	// iteration rates one version from an empty window to the cap.
	b.Run("growing", func(b *testing.B) {
		rng := rand.New(rand.NewSource(5))
		stream := make([]float64, cfg.MaxInvPerVersion)
		for i := range stream {
			stream[i] = 1000 * (1 + rng.NormFloat64()*0.012)
		}
		every := max(cfg.Window/8, 1)
		var ms meanSamples
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ms.resetSamples()
			for j, x := range stream {
				ms.add(x)
				if (j+1)%every == 0 {
					ms.meanConverged(&cfg)
				}
			}
		}
	})
}
