package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"peak/internal/fault"
	"peak/internal/machine"
	"peak/internal/sched"
	"peak/internal/store"
	"peak/internal/trace"
	"peak/internal/vcache"
	"peak/internal/workloads"
)

// How many times a pass boots its server: the reported set-up time is the
// median boot.
const (
	coldSetups = 41
	warmSetups = 5
)

// runServe runs serve-cold or serve-warm. Each pass boots a server on a
// fresh directory (serve-warm: a copy of the prepared one) and sends its
// catalog once from the closed-loop clients, segment by segment: a segment
// starts when the previous one's jobs have all ended and the canary has
// been timed.
func runServe(cfg runConfig, r *report) error {
	want, err := golden()
	if err != nil {
		return err
	}
	cold := cfg.workload == "serve-cold"
	var catalog []spec
	setups := coldSetups
	if !cold {
		prepared := preparedSpecs()
		catalog = append(prepared, refinementSpecs(prepared)...)
		setups = warmSetups
	}
	order := func(pass int) [][]spec {
		if cold {
			return firstSpecs(coldSegments(cfg.seed, pass), cfg.size)
		}
		return firstSpecs(warmSegments(catalog, cfg.seed, pass), cfg.size)
	}

	seedDir := ""
	if !cold {
		// Untimed: run the default-noise spec of every pair the first pass
		// requests into a fresh store, then drain so it is flushed.
		seedDir = filepath.Join(cfg.workDir, "prepared")
		t0 := time.Now()
		n, err := bootNode(seedDir)
		if err != nil {
			return err
		}
		outs, _ := runLoad(n.base, preparedFor(flatten(order(0))), want)
		if err := n.stop(); err != nil {
			return err
		}
		r.Info["prepare_s"] = time.Since(t0).Seconds()
		r.tally(outs)
	}

	var spd *speedometer
	if !cfg.traced {
		if spd, err = newSpeedometer(); err != nil {
			return err
		}
	}
	var tm timings
	var admitMS, queueMS, openMS []float64
	var wall float64
	var l layers
	start := time.Now()
	for ; cfg.another(r.Passes, time.Since(start).Seconds(), 1); r.Passes++ {
		var latMS, setupS []float64
		n, err := bootPass(cfg.workDir, fmt.Sprintf("pass%d", r.Passes), setups, seedDir, func(n *node) {
			setupS = append(setupS, n.setup.Seconds())
			openMS = append(openMS, ms(n.storeOpen))
		})
		if err != nil {
			return err
		}
		// The canary is sampled between segments, while no job runs; the
		// pass's wall time is its segments' load time.
		var d time.Duration
		var sampleErr error
		var steal stealMeter
		before := readMem()
		for i, seg := range order(r.Passes) {
			if i > 0 {
				if sampleErr = spd.sample(); sampleErr != nil {
					break
				}
			}
			steal.start()
			outs, sd := runLoad(n.base, seg, want)
			steal.stop()
			d += sd
			r.tally(outs)
			for _, o := range outs {
				admitMS = append(admitMS, ms(o.admit))
				l.polls += int64(o.polls)
				if o.dup {
					l.dups++
				} else {
					l.untracedJobs += o.latency.Seconds()
				}
				if o.queue >= 0 {
					queueMS = append(queueMS, ms(o.queue))
				}
				if o.ok {
					latMS = append(latMS, ms(o.latency))
				}
			}
		}
		l.mem = memSince(before)
		tm.rssMB = append(tm.rssMB, retainedMB())
		st := n.srv.Stats()
		if err := n.stop(); err != nil {
			return err
		}
		if sampleErr != nil {
			return sampleErr
		}
		wall += d.Seconds()
		if st.Store != nil {
			l.restored, l.preloaded = st.Store.RestoredJobs, st.Store.Preloaded
		}
		k, err := spd.factor()
		if err != nil {
			return err
		}
		tm.pass(k, &steal, float64(len(latMS))/d.Seconds(), latMS, setupS)
	}
	r.Info["load_s"] = wall
	tm.emit(r, spd)
	if !cfg.traced {
		return nil
	}

	l.admitMS = summarize(admitMS).Median
	l.queueMS = summarize(queueMS).Median
	l.storeOpenMS = summarize(openMS).Median
	// The traced replay runs the requests that started a job (not the ones
	// answered from restored artifacts) in the same order, on a fresh copy
	// of the same starting directory.
	var fresh []spec
	for _, sp := range flatten(order(0)) {
		if cold || len(sp.Req.Flags) > 0 {
			fresh = append(fresh, sp)
		}
	}
	dir := filepath.Join(cfg.workDir, "replay")
	if seedDir != "" {
		if err := copyTree(seedDir, dir); err != nil {
			return err
		}
	}
	if err := replayServe(dir, fresh, want, r, &l); err != nil {
		return err
	}
	l.emit(r)
	return nil
}

// preparedFor returns the prepared (default-noise) spec of every pair specs
// request, in catalog order.
func preparedFor(specs []spec) []spec {
	used := map[string]bool{}
	for _, sp := range specs {
		used[sp.Req.Bench+"/"+sp.Req.Machine] = true
	}
	var out []spec
	for _, sp := range preparedSpecs() {
		if used[sp.Req.Bench+"/"+sp.Req.Machine] {
			out = append(out, sp)
		}
	}
	return out
}

// bootPass boots setups servers, each on a fresh directory (a copy of
// seedDir when one is given), reports each to note, stops all but the last
// and returns it.
func bootPass(workDir, name string, setups int, seedDir string, note func(*node)) (*node, error) {
	for k := 0; ; k++ {
		dir := filepath.Join(workDir, fmt.Sprintf("%s-%d", name, k))
		if seedDir != "" {
			if err := copyTree(seedDir, dir); err != nil {
				return nil, err
			}
		}
		n, err := bootNode(dir)
		if err != nil {
			return nil, err
		}
		note(n)
		if k == setups-1 {
			return n, nil
		}
		if err := n.stop(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
}

// tally counts outcomes into the result.
func (r *report) tally(outs []outcome) {
	for _, o := range outs {
		r.Attempted++
		if !o.ok {
			r.fail(o.spec.Key + ": " + o.problem)
		}
	}
}

// replayServe is the traced run of a serve workload: the same jobs, one
// after another on this goroutine, through the calls serve.Server makes,
// against a store and journal opened in dir as serve.New would see them.
func replayServe(dir string, specs []spec, want map[string]string, r *report, l *layers) error {
	rec := newRecorder()
	var st *store.Store
	if err := rec.do("store.open", "", func() (err error) {
		st, err = store.Open(filepath.Join(dir, "store"))
		return err
	}); err != nil {
		return err
	}
	var j *fault.Journal
	if err := rec.do("fault.journal_open", "", func() (err error) {
		j, err = openJournal(filepath.Join(dir, "journal.jsonl"))
		return err
	}); err != nil {
		return err
	}
	defer j.Close() // error paths; the success path checks Close below
	cache := vcache.New()
	rec.do("store.preload", "", func() error {
		st.AttachCache(cache)
		return nil
	})
	env := jobEnv{cache: cache, store: st, journal: j, pool: sched.New(1), rec: rec}
	var pairs []pair
	seen := map[string]bool{}
	for _, sp := range specs {
		r.Attempted++
		o, err := runJob(env, sp)
		if err != nil {
			r.fail(sp.Key + ": " + err.Error())
			continue
		}
		if p := checkDigest(want, sp.Key, o.digest); p != "" {
			r.fail(sp.Key + ": " + p)
		}
		l.addTune(o)
		if pk := sp.Req.Bench + "/" + sp.Req.Machine; !seen[pk] {
			seen[pk] = true
			b, _ := workloads.ByName(sp.Req.Bench)
			m, _ := machine.ByName(sp.Req.Machine)
			pairs = append(pairs, pair{b, m})
		}
	}
	if err := rec.do("store.flush", "", st.Flush); err != nil {
		return err
	}
	l.tracedWall = time.Since(rec.t0).Seconds()
	if err := j.Close(); err != nil {
		return err
	}

	l.simCycles += env.pool.Stats().Cycles.Load()
	l.cache = cache.Stats()
	ss := st.Stats()
	l.memoHits, l.memoMisses, l.flushedBytes = ss.MemoHits, ss.MemoMisses, ss.FlushedBytes
	mx := trace.NewMetrics()
	j.FillMetrics(mx)
	l.journalAppends, l.journalBytes = mx.Get("journal.appends"), mx.Get("journal.append_bytes")
	l.self = rec.selfSeconds()
	l.simSeconds = l.self["profiling"] + l.self["core.rate"] + l.self["core.measure"]
	l.tracedJobs = rec.jobSeconds()
	r.Spans = rec.spans
	var err error
	l.compileMSOp, l.hitNSOp, err = compileMicro(pairs)
	return err
}
