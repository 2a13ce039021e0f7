package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"peak/internal/bench"
	"peak/internal/opt"
	"peak/internal/serve"
	"peak/internal/workloads"
)

// spec is one tuning request of the catalog. Key names it in the golden
// digest file: "bench/machine/noise/flags" with "default" and "all" for the
// empty noise regime and flag subset.
type spec struct {
	Req serve.Request
	Key string
}

func newSpec(req serve.Request) spec {
	noise, flags := req.Noise, "all"
	if noise == "" {
		noise = "default"
	}
	if len(req.Flags) > 0 {
		flags = strings.Join(req.Flags, ",")
	}
	return spec{Req: req, Key: req.Bench + "/" + req.Machine + "/" + noise + "/" + flags}
}

// excludedBench is left out of every serve workload: its compiled code
// depends on Go's map iteration order (README.md, "Why WUPWISE is
// excluded"), so its reports cannot be checked against a digest.
const excludedBench = "WUPWISE"

var (
	catalogMachines = []string{"sparc2", "p4"}
	catalogNoises   = []string{"", "gauss4x"}
)

// refinementsPerPair is the number of flag-subset refinements the warm
// catalog holds per refinable (benchmark, machine) pair; refinementSeed
// fixes them, so every run seed draws from the same digest-checked catalog.
const (
	refinementsPerPair = 20
	refinementSeed     = 2004
	minRefineFlags     = 4
	maxRefineFlags     = 12
)

// unrefinable are the benchmarks whose code fingerprint varies from
// compile to compile for the same reason as WUPWISE's. Their full tunes
// report identically on every run, but a flag-subset tune can rate or
// dedup differently, so the warm catalog refines only the others.
var unrefinable = map[string]bool{"BZIP2": true, "TWOLF": true, "APSI": true, "ART": true, "MGRID": true}

// serveBenches returns the benchmarks the serve workloads tune, in Table-1
// order.
func serveBenches() []*bench.Benchmark {
	var out []*bench.Benchmark
	for _, b := range workloads.All() {
		if b.Name != excludedBench {
			out = append(out, b)
		}
	}
	return out
}

// coldSpecs is the serve-cold catalog: every serve benchmark on both
// machines under the default and the gauss4x noise regime, consultant path,
// all flags.
func coldSpecs() []spec {
	var out []spec
	for _, b := range serveBenches() {
		for _, m := range catalogMachines {
			for _, n := range catalogNoises {
				out = append(out, newSpec(serve.Request{Bench: b.Name, Machine: m, Noise: n}))
			}
		}
	}
	return out
}

// preparedSpecs is the default-noise half of coldSpecs: what serve-warm
// runs into its store before timing.
func preparedSpecs() []spec {
	var out []spec
	for _, sp := range coldSpecs() {
		if sp.Req.Noise == "" {
			out = append(out, sp)
		}
	}
	return out
}

// refinementSpecs returns refinementsPerPair flag-subset requests for each
// prepared pair of a refinable benchmark: minRefineFlags..maxRefineFlags
// distinct tunable flags, canonically ordered, drawn from refinementSeed.
func refinementSpecs(prepared []spec) []spec {
	rng := rand.New(rand.NewSource(refinementSeed))
	all := opt.AllFlags()
	var out []spec
	for _, p := range prepared {
		if unrefinable[p.Req.Bench] {
			continue
		}
		for i := 0; i < refinementsPerPair; i++ {
			k := minRefineFlags + rng.Intn(maxRefineFlags-minRefineFlags+1)
			picked := rng.Perm(len(all))[:k]
			sort.Ints(picked)
			names := make([]string, k)
			for j, fi := range picked {
				names[j] = all[fi].String()
			}
			out = append(out, newSpec(serve.Request{Bench: p.Req.Bench, Machine: p.Req.Machine, Flags: names}))
		}
	}
	return out
}

// warmSegmentCount is the number of segments a serve-warm pass is timed in.
const warmSegmentCount = 8

// coldSegments is one serve-cold pass: the catalog in segments of one
// benchmark each, the benchmarks in the seeded order of the pass. A
// segment's four specs keep catalog order, so the two clients tune a
// machine's default- and gauss4x-noise variants side by side, sharing
// compiled code through the server's cache, sparc2 first, then p4.
func coldSegments(seed int64, pass int) [][]spec {
	specs := coldSpecs()
	per := len(catalogMachines) * len(catalogNoises)
	var groups [][]spec
	for i := 0; i < len(specs); i += per {
		groups = append(groups, specs[i:i+per])
	}
	return shuffled(groups, seed, pass)
}

// warmSegments is one serve-warm pass: catalog in the seeded order of the
// pass, cut into warmSegmentCount segments of near-equal length.
func warmSegments(catalog []spec, seed int64, pass int) [][]spec {
	specs := shuffled(catalog, seed, pass)
	out := make([][]spec, warmSegmentCount)
	for i := range out {
		out[i] = specs[i*len(specs)/warmSegmentCount : (i+1)*len(specs)/warmSegmentCount]
	}
	return out
}

// shuffled returns xs in the seeded order of one pass.
func shuffled[T any](xs []T, seed int64, pass int) []T {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(pass)))
	out := make([]T, len(xs))
	for i, j := range rng.Perm(len(xs)) {
		out[i] = xs[j]
	}
	return out
}

// firstSpecs keeps the first n specs of segs (all of them when n is 0),
// dropping segments left empty.
func firstSpecs(segs [][]spec, n int) [][]spec {
	if n <= 0 {
		return segs
	}
	var out [][]spec
	for _, seg := range segs {
		if n == 0 {
			break
		}
		seg = seg[:min(n, len(seg))]
		n -= len(seg)
		out = append(out, seg)
	}
	return out
}

// flatten joins segs in order.
func flatten(segs [][]spec) []spec {
	var out []spec
	for _, seg := range segs {
		out = append(out, seg...)
	}
	return out
}

// digest is a finished job's golden digest: the sha256 of its report and
// its metrics table.
func digest(report, metrics string) string {
	h := sha256.New()
	h.Write([]byte(report))
	h.Write([]byte{0})
	h.Write([]byte(metrics))
	return hex.EncodeToString(h.Sum(nil))
}

//go:embed testdata/golden_reports.txt
var goldenText string

// golden parses testdata/golden_reports.txt: "<sha256> <key>" per line,
// '#' lines are comments.
func golden() (map[string]string, error) {
	out := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(goldenText))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("golden_reports.txt: malformed line %q", line)
		}
		out[f[1]] = f[0]
	}
	return out, sc.Err()
}
