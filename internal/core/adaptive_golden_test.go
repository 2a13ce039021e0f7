package core

import (
	"reflect"
	"testing"

	"peak/internal/bench"
	"peak/internal/fault"
	"peak/internal/machine"
	"peak/internal/opt"
	"peak/internal/workloads"
)

// TestAdaptiveGolden pins every AdaptiveResult field for three runs: the
// tiny benchmark fault-free; the tiny benchmark under a plan that injects
// both transient compile failures and miscompiles, so compile retries,
// their backoff (inside TotalCycles), verification and quarantine all
// show; and MGRID, whose nine runtime contexts each adopt or keep their
// own winner. The figures are what the adaptive tuner produced when the
// test was written; any change to how it compiles, fault-injects,
// verifies or memoizes flag sets moves them.
func TestAdaptiveGolden(t *testing.T) {
	mgrid, ok := workloads.ByName("MGRID")
	if !ok {
		t.Fatal("no MGRID workload")
	}
	faulted := DefaultConfig()
	faulted.Faults = &fault.Plan{Seed: 11, CompileFailRate: 0.3, MiscompileRate: 0.3}
	tiny := tinyBenchmark()
	for _, c := range []struct {
		name   string
		b      *bench.Benchmark
		m      *machine.Machine
		cfg    Config
		window int
		want   AdaptiveResult
	}{
		{
			name: "tiny",
			b:    tiny, m: machine.SPARCII(), cfg: DefaultConfig(),
			window: 4,
			want: AdaptiveResult{TotalCycles: 747860, Invocations: 600, ContextsSeen: 1,
				Winners:       map[string]opt.FlagSet{"0x1p+06|": 0x3fffffffff},
				VersionsTried: 38},
		},
		{
			name: "tiny/faults",
			b:    tiny, m: machine.SPARCII(), cfg: faulted,
			window: 4,
			want: AdaptiveResult{TotalCycles: 1983133, Invocations: 600, ContextsSeen: 1,
				Winners:   map[string]opt.FlagSet{"0x1p+06|": 0x3ffeffffff},
				Adoptions: 1, VersionsTried: 38,
				Quarantined: []opt.FlagSet{0x3ffffffffd, 0x3ffffffffb, 0x3ffffffff7, 0x3fffffffdf,
					0x3fffffffbf, 0x3fffffff7f, 0x3ffffffeff, 0x3ffffdffff, 0x3ffffbffff, 0x3ffaffffff},
				CompileRetries: 15},
		},
		{
			name: "MGRID",
			b:    mgrid, m: machine.PentiumIV(), cfg: DefaultConfig(),
			window: 10,
			want: AdaptiveResult{TotalCycles: 192649368, Invocations: 1200, ContextsSeen: 9,
				Winners: map[string]opt.FlagSet{
					"0x1.2p+03|": 0x3ffffffbff, "0x1.4p+03|": 0x3ffffffffd, "0x1.6p+03|": 0x3fffffffbf,
					"0x1.8p+02|": 0x3fffffffff, "0x1.8p+03|": 0x3fffffffff, "0x1.ap+03|": 0x3fffffffbf,
					"0x1.cp+02|": 0x3fffffffff, "0x1.cp+03|": 0x3fffffffff, "0x1p+03|": 0x3ffffffffb},
				Adoptions: 5, VersionsTried: 119},
		},
	} {
		at, err := NewAdaptiveTuner(c.b, c.m, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		at.Window = c.window
		got, err := at.Run(c.b.Ref)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(*got, c.want) {
			t.Errorf("%s:\n got %#v\nwant %#v", c.name, *got, c.want)
		}
	}
}
