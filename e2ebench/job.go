package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"peak/internal/cli"
	"peak/internal/core"
	"peak/internal/experiments"
	"peak/internal/fault"
	"peak/internal/machine"
	"peak/internal/opt"
	"peak/internal/profiling"
	"peak/internal/sched"
	"peak/internal/store"
	"peak/internal/trace"
	"peak/internal/vcache"
	"peak/internal/workloads"
)

// jobEnv is what the replayed jobs share, as a serve.Server's jobs do: one
// compile cache, one store, one checkpoint journal and one pool.
type jobEnv struct {
	cache   *vcache.Cache
	store   *store.Store
	journal *fault.Journal
	pool    sched.Pool
	rec     *recorder
}

// jobOut is one replayed job's digest and the counts the per-layer metrics
// sum: the tune's ledger, the profile run's simulated cycles and the cycles
// of measurements that simulated (rather than answering from the store).
type jobOut struct {
	digest         string
	res            *core.TuneResult
	profileCycles  int64
	measuredCycles int64
}

// artifact mirrors the JSON shape serve persists for a finished job, so the
// replay pays the same encode cost.
type artifact struct {
	Request json.RawMessage  `json:"request"`
	Result  *core.TuneResult `json:"result"`
	Report  string           `json:"report"`
	Metrics string           `json:"metrics"`
	Trace   []byte           `json:"trace"`
}

// runJob replays one consultant-path job through the public calls
// serve.Server.runJob makes, in the same order, with a span around each:
// profiling.Run, core.Tuner.Tune (whose rating rounds are the pool's
// core.rate spans), two core.MeasurePerformanceStored calls, then the
// report, metrics, trace and artifact encode plus store.RecordMemo.
func runJob(env jobEnv, sp spec) (jobOut, error) {
	var out jobOut
	b, ok := workloads.ByName(sp.Req.Bench)
	if !ok {
		return out, fmt.Errorf("unknown benchmark %q", sp.Req.Bench)
	}
	m, ok := machine.ByName(sp.Req.Machine)
	if !ok {
		return out, fmt.Errorf("unknown machine %q", sp.Req.Machine)
	}
	cfg := core.DefaultConfig()
	if sp.Req.Noise != "" {
		regime, ok := experiments.RegimeByName(m, sp.Req.Noise)
		if !ok {
			return out, fmt.Errorf("unknown noise regime %q", sp.Req.Noise)
		}
		cfg.Noise = &regime.Model
	}
	var candidates []opt.Flag
	for _, name := range sp.Req.Flags {
		f, ok := opt.FlagByName(name)
		if !ok {
			return out, fmt.Errorf("unknown flag %q", name)
		}
		candidates = append(candidates, f)
	}
	rec, id := env.rec, sp.Key

	var prof *profiling.Profile
	err := rec.do("profiling", id, func() (err error) {
		prof, err = profiling.Run(b, b.Train, m)
		return err
	})
	if err != nil {
		return out, err
	}
	out.profileCycles = prof.TotalTSCycles

	buf := trace.NewBuffer()
	var res *core.TuneResult
	err = rec.do("core.tune", id, func() (err error) {
		t := &core.Tuner{
			Bench: b, Mach: m, Dataset: b.Train, Cfg: cfg, Profile: prof,
			Candidates:   candidates,
			Pool:         &timedPool{Pool: env.pool, rec: rec, job: id},
			Cache:        env.cache,
			Store:        env.store,
			Journal:      env.journal,
			CheckpointID: "serve/" + sp.Key,
			Trace:        buf,
		}
		res, err = t.Tune()
		return err
	})
	if err != nil {
		return out, err
	}
	out.res = res

	measure := func(flags opt.FlagSet) (cycles int64, err error) {
		err = rec.do("core.measure", id, func() (err error) {
			hits := env.store.Stats().MemoHits
			cycles, _, err = core.MeasurePerformanceStored(b, b.Ref, m, flags, env.cache, env.store)
			if err == nil && env.store.Stats().MemoHits == hits {
				out.measuredCycles += cycles
			}
			return err
		})
		return cycles, err
	}
	base, err := measure(opt.O3())
	if err != nil {
		return out, err
	}
	tuned, err := measure(res.Best)
	if err != nil {
		return out, err
	}

	err = rec.do("cli.encode", id, func() error {
		mx := trace.NewMetrics()
		res.FillMetrics(mx)
		var tb bytes.Buffer
		tr := trace.NewTracer(&tb)
		tr.Flush(buf)
		if err := tr.Close(); err != nil {
			return err
		}
		report := cli.FormatTuneReport(b, m, res, false, base, tuned)
		metrics := mx.Format()
		req, err := json.Marshal(sp.Req)
		if err != nil {
			return err
		}
		payload, err := json.Marshal(artifact{Request: req, Result: res, Report: report, Metrics: metrics, Trace: tb.Bytes()})
		if err != nil {
			return err
		}
		env.store.RecordMemo(core.MemoKindJob, "e2ebench/"+sp.Key, payload)
		out.digest = digest(report, metrics)
		return nil
	})
	return out, err
}

// writeGolden replays every catalog spec — serve-cold's and serve-warm's
// refinements — on a fresh store and writes their digests to path. Reports
// are byte-identical with or without a store, cold or warm, so these
// digests hold for every path the workloads take.
func writeGolden(path, workDir string) error {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workDir, "golden-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	env := jobEnv{cache: vcache.New(), store: st, journal: fault.NewMemoryJournal(), pool: sched.New(1)}
	env.store.AttachCache(env.cache)
	specs := append(coldSpecs(), refinementSpecs(preparedSpecs())...)
	var sb strings.Builder
	sb.WriteString("# sha256(report, 0, metrics) of every catalog spec; regenerate with -write-golden.\n")
	for _, sp := range specs {
		o, err := runJob(env, sp)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.Key, err)
		}
		fmt.Fprintf(&sb, "%s %s\n", o.digest, sp.Key)
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}

// timedPool is the replay's rating pool: every Map call — one Iterative
// Elimination round's candidate ratings — is a core.rate span.
type timedPool struct {
	sched.Pool
	rec *recorder
	job string
}

func (p *timedPool) Map(n int, fn func(int)) {
	i := p.rec.begin("core.rate", p.job)
	p.Pool.Map(n, fn)
	p.rec.end(i)
}
