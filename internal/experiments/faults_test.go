package experiments

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"peak/internal/bench"
	"peak/internal/core"
	"peak/internal/fault"
	"peak/internal/machine"
	"peak/internal/sched"
	"peak/internal/vcache"
)

func TestFaultReportStructureAndDeterminism(t *testing.T) {
	m := machine.SPARCII()
	cfg := core.DefaultConfig()
	plan := fault.Uniform(0.05, 2004)
	cfg.Faults = plan
	benches := []*bench.Benchmark{quickBenchmark()}

	bars, err := FaultReport(benches, m, &cfg, core.Env{Cache: vcache.New()})
	if err != nil {
		t.Fatal(err)
	}
	if len(bars) == 0 {
		t.Fatal("no bars")
	}
	injected := 0
	for _, b := range bars {
		if b.Overhead <= 0 {
			t.Errorf("%s_%s: overhead = %v", b.Benchmark, b.Method, b.Overhead)
		}
		if b.Same != (b.CleanBest == b.FaultedBest) {
			t.Errorf("%s_%s: Same flag inconsistent", b.Benchmark, b.Method)
		}
		injected += b.CompileRetries + b.MeasureRetries + b.JobRetries + len(b.Quarantined)
	}
	if injected == 0 {
		t.Error("5% fault rate injected nothing across all bars")
	}

	again, err := FaultReport(benches, m, &cfg, core.Env{Pool: sched.New(4), Cache: vcache.New()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, bars) {
		t.Errorf("fault report differs between serial and 4 workers:\n got %+v\nwant %+v", again, bars)
	}

	out := FormatFaultReport(bars, m.Name, plan)
	for _, want := range []string{"quar", "retries(c/m/j)", "picked the fault-free winner", "quarantined as miscompiled"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestFigure7JournaledResumes: a Figure-7 run with a journal must (a) leave
// resumable state behind and (b) reproduce the journal-free entries exactly
// when resumed from that state.
func TestFigure7JournaledResumes(t *testing.T) {
	m := machine.SPARCII()
	cfg := core.DefaultConfig()
	benches := []*bench.Benchmark{quickBenchmark()}

	ref, err := Figure7(benches, m, &cfg, core.Env{Cache: vcache.New()})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "fig7.jsonl")
	j, err := fault.NewJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Figure7(benches, m, &cfg, core.Env{Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() == 0 {
		t.Error("journal recorded no checkpoints")
	}
	j.Close()
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("journaled run differs:\n got %+v\nwant %+v", got, ref)
	}

	// Resume from the completed journal: every tune restores its final
	// (stopped) checkpoint instead of re-searching.
	j2, err := fault.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	resumed, err := Figure7(benches, m, &cfg, core.Env{Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, ref) {
		t.Errorf("resumed run differs:\n got %+v\nwant %+v", resumed, ref)
	}
}
