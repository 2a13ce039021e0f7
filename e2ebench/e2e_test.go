package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
)

// TestMain lets the test binary serve as the canary child process, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(canaryEnv) != "" {
		canaryChild()
		return
	}
	os.Exit(m.Run())
}

// benchmarkSpec is the part of the repository's BENCHMARK.json the smoke
// test checks the output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestWorkloadsSmoke runs every workload in-process, untraced and traced,
// at three requests per pass (table1: three benchmarks per machine), and
// checks that each emits exactly the metrics BENCHMARK.json names, with
// their units and finite values, with no failed request.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := readBenchmarkSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, traced), func(t *testing.T) {
				r, err := runWorkload(runConfig{workload: name, seed: 1, seconds: 1, traced: traced,
					size: 3, workDir: t.TempDir(), root: ".."})
				if err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", r.Correct, r.Attempted, r.Failed, r.Problems)
				}
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				for _, m := range want {
					got, ok := r.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", m.Name)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v", m.Name, got.Value)
					case got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case !traced && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(r.Metrics), len(want))
				}
				if cov := r.Metrics["trace.coverage"].Value; traced && cov < 0.95 {
					t.Errorf("trace.coverage = %.4f, want >= 0.95", cov)
				}
			})
		}
	}
}

// TestGoldenCoversCatalog checks that testdata/golden_reports.txt holds
// one digest for every spec the serve workloads can send, and no other.
func TestGoldenCoversCatalog(t *testing.T) {
	want, err := golden()
	if err != nil {
		t.Fatal(err)
	}
	catalog := append(coldSpecs(), refinementSpecs(preparedSpecs())...)
	keys := map[string]bool{}
	for _, sp := range catalog {
		if keys[sp.Key] {
			t.Errorf("duplicate catalog spec %s", sp.Key)
		}
		keys[sp.Key] = true
		if _, ok := want[sp.Key]; !ok {
			t.Errorf("no golden digest for %s", sp.Key)
		}
	}
	if len(want) != len(keys) {
		t.Errorf("golden file has %d digests for %d catalog specs", len(want), len(keys))
	}
	if n := len(coldSpecs()); n != 52 {
		t.Errorf("serve-cold catalog has %d specs, want 52", n)
	}
}
