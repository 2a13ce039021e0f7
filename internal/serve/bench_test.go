//go:build unix

package serve

import (
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"peak/internal/opt"
	"peak/internal/store"
	"peak/internal/workloads"
)

// BenchmarkServeColdPass runs one pass shaped like the serve-cold workload:
// every benchmark but WUPWISE on both machines under the default and the
// gauss4x noise regime, consultant path, all flags, submitted at once to a
// -workers 1 -jobs 2 server (two lanes) with an empty store and journal. It
// reports the pass's jobs per second; the /stats pool utilization, the
// share of the two lanes' wall time spent inside pool Map items; the mean
// number of busy cores, the process's CPU time over the pass divided by
// its wall time, which counts work in and out of Map items alike; and
// the shared compile cache's lookup, miss and shared-code totals, which
// depend only on the specs run.
func BenchmarkServeColdPass(b *testing.B) {
	var reqs []Request
	for _, bm := range workloads.All() {
		if bm.Name == "WUPWISE" {
			continue
		}
		for _, m := range []string{"sparc2", "p4"} {
			for _, n := range []string{"", "gauss4x"} {
				reqs = append(reqs, Request{Bench: bm.Name, Machine: m, Noise: n})
			}
		}
	}
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		st, err := store.Open(filepath.Join(dir, "store"))
		if err != nil {
			b.Fatal(err)
		}
		j, err := store.OpenJournal(filepath.Join(dir, store.JournalFile))
		if err != nil {
			b.Fatal(err)
		}
		s := New(Options{Workers: 1, Jobs: 2, Queue: len(reqs), Journal: j, Store: st})
		s.Start()
		cpu0 := cpuTime(b)
		start := time.Now()
		ids := make([]string, len(reqs))
		for k, req := range reqs {
			res, _, err := s.Submit(req)
			if err != nil {
				b.Fatal(err)
			}
			ids[k] = res.ID
		}
		for _, id := range ids {
			for {
				res, _ := s.Job(id)
				if res.State == StateDone {
					break
				}
				if terminalState(res.State) {
					b.Fatalf("job %s (%s) ended %s: %s", id, res.Spec, res.State, res.Error)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
		wall := time.Since(start)
		cpu := cpuTime(b) - cpu0
		stats := s.Stats()
		s.Drain()
		j.Close()
		b.ReportMetric(float64(len(reqs))/wall.Seconds(), "jobs/s")
		b.ReportMetric(stats.Pool.Utilization, "utilization")
		b.ReportMetric(cpu.Seconds()/wall.Seconds(), "busy_cores")
		b.ReportMetric(float64(stats.Cache.Lookups), "cache_lookups")
		b.ReportMetric(float64(stats.Cache.Misses), "cache_misses")
		b.ReportMetric(float64(stats.Cache.Shared), "cache_shared")
	}
}

// BenchmarkWarmBoot times a warm boot's two steps separately: store.Open
// of a store that six finished jobs left behind (SWIM and MGRID flag
// subsets on both machines, and two consultant-path jobs), and New on that
// store, which preloads the compile cache and restores the job
// artifacts. The store is prepared once; each op opens it afresh and
// builds, but does not start, a server in peak-serve's default
// configuration (-workers 1 -jobs 2 -queue 16). It reports each step's
// mean in ms/op beside the combined ns/op and, with -benchmem, the
// combined allocations.
func BenchmarkWarmBoot(b *testing.B) {
	dir := warmBootStore(b)
	var open, boot time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		st, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		s := New(Options{Workers: 1, Jobs: 2, Queue: 16, Store: st})
		open, boot = open+t1.Sub(t0), boot+time.Since(t1)
		if s.restoredJobs.Load() == 0 {
			b.Fatal("warm boot restored no jobs")
		}
	}
	b.ReportMetric(open.Seconds()*1e3/float64(b.N), "open_ms/op")
	b.ReportMetric(boot.Seconds()*1e3/float64(b.N), "new_ms/op")
}

// warmBootStore runs BenchmarkWarmBoot's jobs on an empty store in a
// temporary directory, drains the server, which flushes the store, and
// returns the directory. The file is the same on every call, so the
// benchmark prepares it in each of its runs.
func warmBootStore(b *testing.B) string {
	b.Helper()
	var reqs []Request
	for _, m := range []string{"sparc2", "p4"} {
		reqs = append(reqs,
			Request{Bench: "SWIM", Machine: m, Method: "CBR", Flags: flagNames(opt.AllFlags()[:3])},
			Request{Bench: "MGRID", Machine: m, Method: "MBR", Flags: flagNames(opt.AllFlags()[3:6])})
	}
	reqs = append(reqs, Request{Bench: "SWIM", Machine: "sparc2"}, Request{Bench: "MGRID", Machine: "p4"})
	dir := b.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	s := New(Options{Workers: 2, Jobs: 2, Queue: len(reqs), Store: st})
	s.Start()
	ids := make([]string, len(reqs))
	for k, req := range reqs {
		res, _, err := s.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		ids[k] = res.ID
	}
	for _, id := range ids {
		for res, _ := s.Job(id); res.State != StateDone; res, _ = s.Job(id) {
			if terminalState(res.State) {
				b.Fatalf("job %s ended %s: %s", res.Spec, res.State, res.Error)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	s.Drain()
	if st := s.Stats().Store; st == nil || st.FlushError != "" {
		b.Fatalf("store not flushed: %+v", st)
	}
	return dir
}

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
