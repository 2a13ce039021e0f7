package experiments

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"peak/internal/bench"
	"peak/internal/core"
	"peak/internal/machine"
	"peak/internal/sched"
	"peak/internal/store"
	"peak/internal/trace"
)

func TestNoiseRegimes(t *testing.T) {
	m := machine.SPARCII()
	regimes := Regimes(m)
	want := []string{"baseline", "gauss4x", "spikes", "drift", "bursts"}
	if len(regimes) != len(want) {
		t.Fatalf("regimes = %d, want %d", len(regimes), len(want))
	}
	for i, name := range want {
		if regimes[i].Name != name {
			t.Errorf("regime %d = %s, want %s", i, regimes[i].Name, name)
		}
	}
	if regimes[0].Model != (Regimes(m)[0].Model) {
		t.Error("Regimes is not stable")
	}
	// The baseline regime must be exactly the machine default: tuning
	// with -noise baseline must reproduce tuning without the flag.
	if d := regimes[0].Model; d.Jitter != m.NoiseStdDev || d.SpikeProb != m.OutlierProb {
		t.Errorf("baseline regime %+v does not match machine noise", d)
	}

	if _, ok := RegimeByName(m, "spikes"); !ok {
		t.Error("RegimeByName missed spikes")
	}
	if _, ok := RegimeByName(m, "hurricane"); ok {
		t.Error("RegimeByName accepted junk")
	}
	if names := RegimeNames(m); len(names) != len(want) || names[2] != "spikes" {
		t.Errorf("RegimeNames = %v", names)
	}
}

// TestNoiseReportDeterministic: the report is byte-identical at any worker
// count (the full-workload equivalent is checked by the tier-1 recipe via
// cmd/peak-experiments -noise).
func TestNoiseReportDeterministic(t *testing.T) {
	benches := []*bench.Benchmark{quickBenchmark()}
	m := machine.SPARCII()
	cfg := core.DefaultConfig()
	serial, err := NoiseReport(benches, m, &cfg, core.Env{})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NoiseReport(benches, m, &cfg, core.Env{Pool: sched.New(8)})
	if err != nil {
		t.Fatal(err)
	}
	if serial != parallel {
		t.Error("noise report differs between 1 and 8 workers")
	}

	for _, want := range []string{"QUICK", "baseline", "bursts", "wrong adopts", "Welch-gated"} {
		if !strings.Contains(serial, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestNoiseReportWarmStartByteIdentical pins the experiments half of the
// warm-start contract: the noise report (text and trace) is byte-identical
// with the cell memo off, cold (empty store) and warm (reopened after a
// flush), at 1 and 8 workers — and the warm runs answer every grid cell
// from the memo table (zero misses, no live profiling). Runs under -race
// in the tier-1 recipe.
func TestNoiseReportWarmStartByteIdentical(t *testing.T) {
	benches := []*bench.Benchmark{quickBenchmark()}
	m := machine.SPARCII()
	cfg := core.DefaultConfig()
	dir := t.TempDir()

	run := func(ps *store.Store, workers int) (string, string) {
		tb := trace.NewBuffer()
		report, err := NoiseReport(benches, m, &cfg, core.Env{Pool: sched.New(workers), Store: ps, Trace: tb})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, ev := range tb.Events() {
			fmt.Fprintf(&sb, "%+v\n", ev)
		}
		return report, sb.String()
	}

	wantReport, wantTrace := run(nil, 4)

	cold, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	coldReport, coldTrace := run(cold, 4)
	if coldReport != wantReport || coldTrace != wantTrace {
		t.Fatal("attaching an empty store changed the noise report or trace")
	}
	if st := cold.Stats(); st.Pending == 0 {
		t.Fatalf("cold run recorded no cell memos: %+v", st)
	}
	if err := cold.Flush(); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 8} {
		warm, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		report, traceStr := run(warm, workers)
		if report != wantReport {
			t.Errorf("warm report (%d workers) differs from cold", workers)
		}
		if traceStr != wantTrace {
			t.Errorf("warm trace (%d workers) differs from cold", workers)
		}
		st := warm.Stats()
		if st.MemoHits == 0 || st.MemoMisses != 0 {
			t.Errorf("warm run (%d workers) stats = %+v, want all-hit cell lookups", workers, st)
		}
	}
}

// TestCellMemoLayout pins the noise-grid cell record to the bytes earlier
// builds wrote (the golden hex came from the hand-written encoder the
// cellMemo struct replaced), so a store written by one build warm-starts
// the next. Reordering or retyping a field fails here; such a change
// needs a memo version bump instead. The values carry NaN (with a
// payload), ±Inf, -0 and a negative count, and the two float fields
// differ in each case. Each record must also restore bit-exactly.
func TestCellMemoLayout(t *testing.T) {
	nan := math.Float64frombits(0x7ff8000000000001)
	for _, c := range []struct {
		in     cellMemo
		golden string
	}{
		{cellMemo{Method: int64(core.MethodMBR), Mu: nan, Sigma: math.Copysign(0, -1), N: 40},
			"0100000000000000010000000000f87f00000000000000802800000000000000"},
		{cellMemo{Method: int64(core.MethodAVG), Mu: math.Inf(-1), Sigma: math.Inf(1), N: -3},
			"0300000000000000000000000000f0ff000000000000f07ffdffffffffffffff"},
	} {
		dir := t.TempDir()
		s, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		store.Memo(s, cellKind, "k", func() (cellMemo, error) { return c.in, nil })
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if s, err = store.Open(dir); err != nil {
			t.Fatal(err)
		}
		var payload []byte
		s.MemoEach(string(cellKind), func(_ string, p []byte) { payload = p })
		if got := hex.EncodeToString(payload); got != c.golden {
			t.Errorf("cell record layout drifted:\ngot  %s\nwant %s", got, c.golden)
		}
		saved, hit, _ := store.Memo(s, cellKind, "k", func() (cellMemo, error) {
			return cellMemo{}, errors.New("computed")
		})
		var back bytes.Buffer
		binary.Write(&back, binary.LittleEndian, saved)
		if !hit || !bytes.Equal(back.Bytes(), payload) {
			t.Errorf("cell record did not restore bit-exactly: hit=%t, re-encoded %x", hit, back.Bytes())
		}
	}
}
