package main

import (
	"runtime"
	"time"

	"peak/internal/bench"
	"peak/internal/machine"
	"peak/internal/opt"
	"peak/internal/sim"
	"peak/internal/vcache"
)

// layers collects the per-layer metrics of a traced run. Every workload
// emits all of them; a layer the workload does not exercise reads zero.
type layers struct {
	// serve and store, from the traced run's HTTP pass
	admitMS, queueMS, storeOpenMS float64
	polls, dups                   int64
	restored, preloaded           int64

	// span self seconds by layer name, the traced wall time, the seconds
	// of the self time that simulates, and the traced and untraced job time
	self                                    map[string]float64
	tracedWall, simSeconds                  float64
	tracedJobs, untracedJobs                float64
	invocations, rounds, rated, dedup, escs int64
	simCycles                               int64

	cache                        vcache.Stats
	compileMSOp, hitNSOp         float64
	memoHits, memoMisses         int64
	flushedBytes                 int64
	journalAppends, journalBytes int64
	mem                          memDelta
}

// addTune sums one replayed job's counts.
func (l *layers) addTune(o jobOut) {
	l.invocations += o.res.Invocations
	l.rounds += int64(o.res.Rounds)
	l.rated += int64(o.res.VersionsRated)
	l.dedup += int64(o.res.DedupSkips)
	l.escs += int64(o.res.Escalations)
	l.simCycles += o.profileCycles + o.measuredCycles
}

func (l *layers) emit(r *report) {
	var selfTotal float64
	for _, s := range l.self {
		selfTotal += s
	}
	count := func(name string, v int64) { r.add(name, float64(v), "count") }
	r.add("serve.admit_ms", l.admitMS, "ms")
	r.add("serve.queue_ms", l.queueMS, "ms")
	count("serve.polls", l.polls)
	count("serve.dup_answers", l.dups)
	count("serve.restored_jobs", l.restored)
	r.add("store.open_ms", l.storeOpenMS, "ms")
	count("store.preloaded", l.preloaded)

	r.add("profiling.self_s", l.self["profiling"], "s")
	r.add("profiling.share", ratio(l.self["profiling"], selfTotal), "ratio")
	r.add("core.rate.self_s", l.self["core.rate"], "s")
	r.add("core.measure.self_s", l.self["core.measure"], "s")
	r.add("core.tune.self_s", l.self["core.tune"], "s")
	r.add("cli.encode.self_s", l.self["cli.encode"], "s")
	r.add("experiments.consistency.self_s", l.self["experiments.consistency"], "s")
	count("core.invocations", l.invocations)
	count("core.rounds", l.rounds)
	count("core.versions_rated", l.rated)
	count("core.dedup_skips", l.dedup)
	count("core.escalations", l.escs)
	r.add("sim.gcycles", float64(l.simCycles)/1e9, "Gcycles")
	r.add("sim.mcycles_per_s", ratio(float64(l.simCycles)/1e6, l.simSeconds), "Mcycles/s")

	count("vcache.lookups", l.cache.Lookups)
	count("vcache.misses", l.cache.Misses)
	count("vcache.shared", l.cache.Shared)
	count("vcache.disk_hits", l.cache.DiskHits)
	r.add("vcache.hit_rate", l.cache.HitRate(), "ratio")
	r.add("opt.compile_ms_op", l.compileMSOp, "ms")
	r.add("vcache.hit_ns_op", l.hitNSOp, "ns")

	count("store.memo_hits", l.memoHits)
	count("store.memo_misses", l.memoMisses)
	r.add("store.memo_hit_rate", ratio(float64(l.memoHits), float64(l.memoHits+l.memoMisses)), "ratio")
	r.add("store.flush_ms", l.self["store.flush"]*1000, "ms")
	r.add("store.flushed_mb", float64(l.flushedBytes)/1e6, "MB")
	count("fault.journal_appends", l.journalAppends)
	r.add("fault.journal_kb", float64(l.journalBytes)/1024, "KB")

	r.add("go.alloc_mb", l.mem.allocMB, "MB")
	count("go.gc_cycles", l.mem.gcCycles)
	r.add("go.gc_pause_ms", l.mem.pauseMS, "ms")
	r.add("trace.coverage", ratio(selfTotal, l.tracedWall), "ratio")
	r.add("trace.minus_untraced_s", l.tracedJobs-l.untracedJobs, "s")
	r.Info["traced_wall_s"] = l.tracedWall
}

// ratio is a / b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// memDelta is the Go runtime's allocation and GC work over an interval.
type memDelta struct {
	allocMB  float64
	gcCycles int64
	pauseMS  float64
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		allocMB:  float64(after.TotalAlloc-before.TotalAlloc) / 1e6,
		gcCycles: int64(after.NumGC - before.NumGC),
		pauseMS:  float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}
}

// pair is one (benchmark, machine) combination.
type pair struct {
	b *bench.Benchmark
	m *machine.Machine
}

// hitLookups is the number of cache hits compileMicro times.
const hitLookups = 20000

// compileMicro times the two compile paths on the pairs' -O3 tuning
// sections: a cold opt.Compile (ms per compile) and a vcache hit (ns per
// lookup, in a cache holding just these versions).
func compileMicro(pairs []pair) (compileMSOp, hitNSOp float64, err error) {
	if len(pairs) == 0 {
		return 0, 0, nil
	}
	keys := make([]vcache.Key, len(pairs))
	versions := make([]*sim.Version, len(pairs))
	t0 := time.Now()
	for i, p := range pairs {
		if versions[i], err = opt.Compile(p.b.Prog, p.b.TS, opt.O3(), p.m); err != nil {
			return 0, 0, err
		}
	}
	compileMSOp = ms(time.Since(t0)) / float64(len(pairs))
	cache := vcache.New()
	for i, p := range pairs {
		keys[i] = vcache.Key{Prog: vcache.ProgramKey(p.b.Prog), Fn: p.b.TS.Name, Flags: opt.O3(), Machine: p.m.Name}
		v := versions[i]
		if _, err := cache.Resolve(keys[i], func() (*sim.Version, error) { return v, nil }); err != nil {
			return 0, 0, err
		}
	}
	t0 = time.Now()
	for i := 0; i < hitLookups; i++ {
		if _, err := cache.Resolve(keys[i%len(keys)], nil); err != nil {
			return 0, 0, err
		}
	}
	hitNSOp = float64(time.Since(t0).Nanoseconds()) / hitLookups
	return compileMSOp, hitNSOp, nil
}
