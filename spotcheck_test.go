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

// TestTable1SpotCheck enforces the Table-1 spot-check: for each machine,
// peak-experiments -table1 must print results_table1_<machine>.txt byte
// for byte at one worker and at eight, and -regime baseline (the
// machine's default noise model, named) must print the same bytes as no
// regime.
func TestTable1SpotCheck(t *testing.T) {
	goBin := goTool(t)
	bin := filepath.Join(t.TempDir(), "peak-experiments")
	build := exec.Command(goBin, "build", "-o", bin, "./cmd/peak-experiments")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("build peak-experiments: %v", err)
	}
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
