package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"peak/internal/bench"
	"peak/internal/core"
	"peak/internal/experiments"
	"peak/internal/machine"
	"peak/internal/profiling"
	"peak/internal/workloads"
)

// table1Setups is the number of timed suite constructions; the reported
// set-up time is their median.
const table1Setups = 101

var table1Machines = []string{"sparc2", "p4"}

// t1job is one Table-1 cell group: a benchmark profiled, consulted and
// measured for consistency on one machine.
type t1job struct {
	mi, bi int
}

// runTable1 runs the Table-1 experiment serially: each pass computes every
// (machine, benchmark) job in the seed's order, then formats each machine's
// table and checks it against results_table1_<machine>.txt.
func runTable1(cfg runConfig, r *report) error {
	var spd *speedometer
	if !cfg.traced {
		var err error
		if spd, err = newSpeedometer(); err != nil {
			return err
		}
	}
	var benches []*bench.Benchmark
	var machines []*machine.Machine
	var setupS []float64
	for k := 0; k < table1Setups; k++ {
		t0 := time.Now()
		benches, machines = workloads.All(), nil
		for _, name := range table1Machines {
			m, _ := machine.ByName(name)
			machines = append(machines, m)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	if cfg.size > 0 && cfg.size < len(benches) {
		benches = benches[:cfg.size]
	}
	want := make([]table1Want, len(machines))
	for i, m := range machines {
		var err error
		if want[i], err = readTable1(cfg.root, m.Name); err != nil {
			return err
		}
	}
	var jobs []t1job
	for mi := range machines {
		for bi := range benches {
			jobs = append(jobs, t1job{mi, bi})
		}
	}
	t := &table1Run{benches: benches, machines: machines, want: want, full: cfg.size == 0, cfg: core.DefaultConfig(), r: r}

	var tm timings
	var wall float64
	var l layers
	// At least two passes, so p80 has ten or more jobs beyond it. The
	// set-ups share the first pass's scale factor.
	for ; cfg.another(r.Passes, wall, 2); r.Passes++ {
		var steal stealMeter
		before := readMem()
		steal.start()
		lat, d, _ := t.pass(jobs, cfg.seed, r.Passes, nil)
		steal.stop()
		l.mem = memSince(before)
		tm.rssMB = append(tm.rssMB, retainedMB())
		wall += d
		k, err := spd.factor()
		if err != nil {
			return err
		}
		tm.pass(k, &steal, float64(len(lat))/d, lat, setupS)
		setupS = nil
	}
	r.Info["load_s"] = wall
	tm.emit(r, spd)
	if !cfg.traced {
		return nil
	}

	rec := newRecorder()
	_, d, profs := t.pass(jobs, cfg.seed, 0, rec)
	l.tracedWall = time.Since(rec.t0).Seconds()
	l.self = rec.selfSeconds()
	l.simSeconds = l.self["profiling"]
	l.tracedJobs, l.untracedJobs = d, wall
	var pairs []pair
	for i, job := range jobs {
		if profs[i] == nil {
			continue // failed, and counted
		}
		b, m := benches[job.bi], machines[job.mi]
		l.invocations += int64(profs[i].Invocations + b.Train.NumInvocations)
		l.simCycles += profs[i].TotalTSCycles
		pairs = append(pairs, pair{b, m})
	}
	r.Spans = rec.spans
	var err error
	if l.compileMSOp, l.hitNSOp, err = compileMicro(pairs); err != nil {
		return err
	}
	l.emit(r)
	return nil
}

// table1Run is the state one Table-1 run's passes share.
type table1Run struct {
	benches  []*bench.Benchmark
	machines []*machine.Machine
	want     []table1Want
	full     bool
	cfg      core.Config
	r        *report
}

// pass computes every job once in the seeded order and checks the tables.
// It returns the job latencies (ms), the pass's wall time (s) and each
// job's profile, indexed like jobs.
func (t *table1Run) pass(jobs []t1job, seed int64, pass int, rec *recorder) ([]float64, float64, []*profiling.Profile) {
	rows := make([][][]core.ConsistencyRow, len(t.machines))
	for mi := range rows {
		rows[mi] = make([][]core.ConsistencyRow, len(t.benches))
	}
	profs := make([]*profiling.Profile, len(jobs))
	ok := make([]bool, len(jobs))
	var latMS []float64
	t0 := time.Now()
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(pass)))
	for _, i := range rng.Perm(len(jobs)) {
		job := jobs[i]
		b, m := t.benches[job.bi], t.machines[job.mi]
		id := b.Name + "/" + m.Name
		j0 := time.Now()
		var err error
		rows[job.mi][job.bi], profs[i], err = t.job(b, m, id, rec)
		if err != nil {
			t.r.Attempted++
			t.r.fail(id + ": " + err.Error())
			continue
		}
		ok[i] = true
		latMS = append(latMS, ms(time.Since(j0)))
	}
	rec.do("experiments.format", "", func() error {
		for i, job := range jobs {
			if !ok[i] {
				continue
			}
			t.r.Attempted++
			b, m := t.benches[job.bi], t.machines[job.mi]
			got := experiments.FormatTable1(rows[job.mi][job.bi], experiments.PaperWindows)
			if want := t.want[job.mi].header + t.want[job.mi].rows[b.Name]; got != want {
				t.r.fail(fmt.Sprintf("table1 %s/%s: rows differ from results_table1_%s.txt:\n%s", b.Name, m.Name, m.Name, got))
			}
		}
		if t.full {
			// The whole table, as cmd/peak-consistency prints it below its
			// title, must be the committed file's body byte for byte.
			for mi, m := range t.machines {
				var all []core.ConsistencyRow
				for _, rs := range rows[mi] {
					all = append(all, rs...)
				}
				if experiments.FormatTable1(all, experiments.PaperWindows) != t.want[mi].body {
					t.r.fail("table1 " + m.Name + ": table differs from results_table1_" + m.Name + ".txt")
				}
			}
		}
		return nil
	})
	return latMS, time.Since(t0).Seconds(), profs
}

// job is one Table-1 benchmark on one machine, as experiments.Table1 runs
// it: profile on train, consult, measure consistency across the windows.
func (t *table1Run) job(b *bench.Benchmark, m *machine.Machine, id string, rec *recorder) ([]core.ConsistencyRow, *profiling.Profile, error) {
	var prof *profiling.Profile
	if err := rec.do("profiling", id, func() (err error) {
		prof, err = profiling.Run(b, b.Train, m)
		return err
	}); err != nil {
		return nil, nil, err
	}
	var method core.Method
	rec.do("core.consult", id, func() error {
		method = core.Consult(prof, &t.cfg).Chosen()
		return nil
	})
	var rows []core.ConsistencyRow
	err := rec.do("experiments.consistency", id, func() (err error) {
		rows, err = core.Consistency(b, m, prof, method, experiments.PaperWindows, &t.cfg)
		return err
	})
	return rows, prof, err
}

// table1Want is a committed results_table1_<machine>.txt: body is what
// experiments.FormatTable1 printed (the file minus its two title lines),
// header its column-header line, rows each benchmark's row lines.
type table1Want struct {
	body, header string
	rows         map[string]string
}

func readTable1(root, machine string) (table1Want, error) {
	name := "results_table1_" + machine + ".txt"
	data, err := os.ReadFile(filepath.Join(root, name))
	if err != nil {
		return table1Want{}, err
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 4 {
		return table1Want{}, fmt.Errorf("%s: too short", name)
	}
	w := table1Want{body: strings.Join(lines[2:], ""), header: lines[2], rows: map[string]string{}}
	for _, line := range lines[3:] {
		if f := strings.Fields(line); len(f) > 0 {
			w.rows[f[0]] += line
		}
	}
	return w, nil
}
