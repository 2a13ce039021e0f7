package core

import (
	"encoding/binary"
	"math"
	"testing"

	"peak/internal/stats"
)

// fuzzSamples decodes a fuzz input into a sample sequence. An even first
// byte selects one byte per sample from a small alphabet — values 1000 to
// 1015, so ties and all-equal windows are common, and 100× spikes for
// bytes ≥ 0xf0. An odd first byte selects eight bytes per sample as raw
// float64 bits, so any value occurs: negative, zero of either sign, huge
// enough to overflow a median's sum, NaN and ±Inf. At most 600 samples
// are used.
func fuzzSamples(data []byte) []float64 {
	if len(data) == 0 {
		return nil
	}
	mode, data := data[0], data[1:]
	var xs []float64
	if mode%2 == 0 {
		for _, b := range data {
			x := 1000 + float64(b&0x0f)
			if b >= 0xf0 {
				x *= 100
			}
			xs = append(xs, x)
		}
	} else {
		for ; len(data) >= 8; data = data[8:] {
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
	}
	return xs[:min(len(xs), 600)]
}

// checkFilter asserts that s's cached filter state is what filtering its
// window from scratch with stats.RejectOutliers gives, bit for bit.
func checkFilter(t *testing.T, s *meanSamples, cfg *Config) {
	t.Helper()
	s.filter(cfg)
	kept, rejected, abandoned := stats.RejectOutliers(s.samples, cfg.OutlierK)
	n := len(s.samples)
	if s.fRejected != rejected || s.fAbandoned != abandoned {
		t.Fatalf("n=%d: rejected/abandoned = %d/%v, want %d/%v", n, s.fRejected, s.fAbandoned, rejected, abandoned)
	}
	if len(s.fKept) != len(kept) {
		t.Fatalf("n=%d: kept %d samples, want %d", n, len(s.fKept), len(kept))
	}
	for i := range kept {
		if math.Float64bits(s.fKept[i]) != math.Float64bits(kept[i]) {
			t.Fatalf("n=%d: kept[%d] = %v, want %v", n, i, s.fKept[i], kept[i])
		}
	}
	v := stats.Variance(kept)
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"mean", s.fMean, stats.Mean(kept)},
		{"variance", s.fVar, v},
		{"CI half-width", s.fCIHalf, stats.MeanCIHalf(v, len(kept), cfg.confidence())},
	} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Fatalf("n=%d: %s = %v, want %v", n, c.name, c.got, c.want)
		}
	}
}

// FuzzOutlierFilter is the differential oracle for meanSamples' O(n)
// outlier filter: for any sample sequence and rejection multiplier, after
// every add — and after every fifth, so several samples enter the sorted
// mirror at once — the kept samples, rejected count, abandoned flag and
// the mean, variance and CI half-width bits equal those of
// stats.RejectOutliers over the whole window. The window is then reset
// and refilled, so reused buffers must carry no state over.
func FuzzOutlierFilter(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, k float64) {
		cfg := DefaultConfig()
		cfg.OutlierK = k
		xs := fuzzSamples(data)
		var every, batched meanSamples
		for i, x := range xs {
			every.add(x)
			batched.add(x)
			checkFilter(t, &every, &cfg)
			if i%5 == 4 {
				checkFilter(t, &batched, &cfg)
			}
		}
		every.resetSamples()
		for _, x := range xs[len(xs)/2:] {
			every.add(x)
			checkFilter(t, &every, &cfg)
		}
	})
}
