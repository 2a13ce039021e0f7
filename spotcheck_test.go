package peak

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// goTool returns the go binary for the tests that drive the cmds, skipping
// under -short (they spawn the toolchain) or when it is not on PATH.
func goTool(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not in PATH")
	}
	return goBin
}

// TestPeakTunesOnChosenDataset: cmd/peak without -method must profile and
// tune on the dataset -dataset names, not silently on train — the trace's
// tune_start event records the dataset the engine actually tuned on.
func TestPeakTunesOnChosenDataset(t *testing.T) {
	goBin := goTool(t)
	path := filepath.Join(t.TempDir(), "swim.jsonl")
	cmd := exec.Command(goBin, "run", "./cmd/peak", "-bench", "SWIM", "-machine", "p4", "-dataset", "ref", "-trace", path)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("peak: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	starts := 0
	for _, ev := range events {
		if ev.Kind != "tune_start" {
			continue
		}
		starts++
		if ev.Detail != "ref" || ev.Tune != "SWIM/p4/auto/ref" {
			t.Errorf("tune_start = {tune %q, detail %q}, want the ref dataset", ev.Tune, ev.Detail)
		}
	}
	if starts != 1 {
		t.Errorf("%d tune_start events, want 1", starts)
	}
}

// buildCmd builds ./cmd/<name> into a temporary directory and returns
// the binary's path.
func buildCmd(t *testing.T, name string) string {
	t.Helper()
	goBin := goTool(t)
	bin := filepath.Join(t.TempDir(), name)
	build := exec.Command(goBin, "build", "-o", bin, "./cmd/"+name)
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	return bin
}

// buildExperiments builds cmd/peak-experiments and returns the binary's
// path.
func buildExperiments(t *testing.T) string { return buildCmd(t, "peak-experiments") }

// TestTable1SpotCheck enforces the Table-1 spot-check: for each machine,
// peak-experiments -table1 must print results_table1_<machine>.txt byte
// for byte at one worker and at eight, and -regime baseline (the
// machine's default noise model, named) must print the same bytes as no
// regime.
func TestTable1SpotCheck(t *testing.T) {
	bin := buildExperiments(t)
	run := func(args ...string) []byte {
		t.Helper()
		cmd := exec.Command(bin, append([]string{"-table1"}, args...)...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("peak-experiments -table1 %v: %v", args, err)
		}
		return out
	}
	for _, m := range []string{"sparc2", "p4"} {
		want, err := os.ReadFile("results_table1_" + m + ".txt")
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []string{"1", "8"} {
			if got := run("-machine", m, "-workers", workers); !bytes.Equal(got, want) {
				t.Errorf("-machine %s -workers %s differs from results_table1_%s.txt:\n%s", m, workers, m, got)
			}
		}
	}
	want, err := os.ReadFile("results_table1_sparc2.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := run("-machine", "sparc2", "-regime", "baseline"); !bytes.Equal(got, want) {
		t.Errorf("-regime baseline differs from the default-noise table:\n%s", got)
	}
}

// TestFigure7SpotCheck enforces the Figure-7 recipe: peak-experiments
// -headline tunes every Figure-7 bar on both machines with every rating
// method and must print results_figure7.txt byte for byte, so a change to
// any of the tuner's raters shows up here.
func TestFigure7SpotCheck(t *testing.T) {
	bin := buildExperiments(t)
	want, err := os.ReadFile("results_figure7.txt")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-headline", "-workers", "2")
	cmd.Stderr = os.Stderr
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("peak-experiments -headline: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("peak-experiments -headline differs from results_figure7.txt:\n%s", got)
	}
}

// sparc2Half returns the sparc2 section of a two-machine results file:
// everything before the blank line that opens the p4 section, whose header
// line is the file's first line with the machine renamed.
func sparc2Half(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	first, _, _ := bytes.Cut(data, []byte("\n"))
	p4 := bytes.Replace(first, []byte(" on sparc2 "), []byte(" on p4 "), 1)
	i := bytes.Index(data, append([]byte("\n\n"), p4...))
	if i < 0 {
		t.Fatalf("%s: no p4 section after the sparc2 one", name)
	}
	return data[:i+1]
}

// TestResultsSpotCheck enforces the noise and fault spot-checks on sparc2:
// peak-experiments -noise must print the sparc2 half of results_noise.txt
// byte for byte at two workers and at one worker with the compile cache
// off, and the -trace files of those two runs must be byte-identical;
// -faults must print the sparc2 half of results_faults.txt. Both reports
// are built from simulated cycle counts, so any change to the simulator's
// accounting shows up here.
func TestResultsSpotCheck(t *testing.T) {
	bin := buildExperiments(t)
	noise := sparc2Half(t, "results_noise.txt")
	faults := sparc2Half(t, "results_faults.txt")
	dir := t.TempDir()
	var traces [][]byte
	for _, c := range []struct {
		want  []byte
		file  string
		trace string
		args  []string
	}{
		{noise, "results_noise.txt", "w2.jsonl", []string{"-noise", "-machine", "sparc2", "-workers", "2"}},
		{noise, "results_noise.txt", "w1-nocache.jsonl", []string{"-noise", "-machine", "sparc2", "-workers", "1", "-nocache"}},
		{faults, "results_faults.txt", "", []string{"-faults", "-machine", "sparc2", "-workers", "2"}},
	} {
		args := c.args
		if c.trace != "" {
			args = append(args, "-trace", filepath.Join(dir, c.trace))
		}
		cmd := exec.Command(bin, args...)
		cmd.Stderr = os.Stderr
		got, err := cmd.Output()
		if err != nil {
			t.Fatalf("peak-experiments %v: %v", args, err)
		}
		if !bytes.Equal(got, c.want) {
			t.Errorf("peak-experiments %v differs from the sparc2 half of %s:\n%s", args, c.file, got)
		}
		if c.trace != "" {
			data, err := os.ReadFile(filepath.Join(dir, c.trace))
			if err != nil {
				t.Fatal(err)
			}
			traces = append(traces, data)
		}
	}
	if len(traces[0]) == 0 || !bytes.Equal(traces[0], traces[1]) {
		t.Errorf("-noise traces differ or are empty: %d bytes at -workers 2, %d at -workers 1 -nocache",
			len(traces[0]), len(traces[1]))
	}
}

// TestWarmStartSpotCheck enforces the warm-start recipe: peak-experiments
// -noise -machine sparc2 -cache-dir D, run twice on one fresh directory,
// must print the sparc2 half of results_noise.txt both times, and the
// second run must answer every grid cell from the store's memo table.
func TestWarmStartSpotCheck(t *testing.T) {
	bin := buildExperiments(t)
	want := sparc2Half(t, "results_noise.txt")
	dir := t.TempDir()
	for i, summary := range []string{
		"0 cell memo hit(s), 70 new record(s)",
		"70 cell memo hit(s), 0 new record(s)",
	} {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, "-noise", "-machine", "sparc2", "-cache-dir", dir)
		cmd.Stderr = &stderr
		got, err := cmd.Output()
		if err != nil {
			t.Fatalf("run %d: %v\n%s", i+1, err, stderr.Bytes())
		}
		if !bytes.Equal(got, want) {
			t.Errorf("run %d differs from the sparc2 half of results_noise.txt:\n%s", i+1, got)
		}
		if !bytes.Contains(stderr.Bytes(), []byte(summary)) {
			t.Errorf("run %d stderr lacks %q:\n%s", i+1, summary, stderr.Bytes())
		}
	}
}

// TestServeSmokeSpotCheck enforces the serve smoke: peak-serve -smoke
// MGRID/sparc2 pushes one job through the real HTTP stack, with and
// without a store directory, and must print exactly what peak -bench
// MGRID -machine sparc2 prints.
func TestServeSmokeSpotCheck(t *testing.T) {
	serve, peak := buildCmd(t, "peak-serve"), buildCmd(t, "peak")
	run := func(bin string, args ...string) []byte {
		t.Helper()
		cmd := exec.Command(bin, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s %v: %v", filepath.Base(bin), args, err)
		}
		return out
	}
	want := run(peak, "-bench", "MGRID", "-machine", "sparc2")
	for _, args := range [][]string{
		{"-smoke", "MGRID/sparc2"},
		{"-smoke", "MGRID/sparc2", "-cache-dir", t.TempDir()},
	} {
		if got := run(serve, args...); !bytes.Equal(got, want) {
			t.Errorf("peak-serve %v differs from peak -bench MGRID -machine sparc2:\n%s", args, got)
		}
	}
}

// TestFaultSpotCheck enforces the fault determinism recipe on one tune:
// peak -bench ART -machine p4 -faults must print results_faults_art_p4.txt
// byte for byte at eight workers, at one, and at one with the compile
// cache off. The report's cache and fault-recovery footers count the
// tune's own lookups, retries, quarantines and verification invocations,
// so a change to how flag sets are compiled, fault-injected or verified
// shows up here.
func TestFaultSpotCheck(t *testing.T) {
	bin := buildCmd(t, "peak")
	want, err := os.ReadFile("results_faults_art_p4.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, extra := range [][]string{
		{"-workers", "8"},
		{"-workers", "1"},
		{"-workers", "1", "-nocache"},
	} {
		args := append([]string{"-bench", "ART", "-machine", "p4", "-faults"}, extra...)
		cmd := exec.Command(bin, args...)
		cmd.Stderr = os.Stderr
		got, err := cmd.Output()
		if err != nil {
			t.Fatalf("peak %v: %v", args, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("peak %v differs from results_faults_art_p4.txt:\n%s", args, got)
		}
	}
}
