//go:build unix

package serve

import (
	"path/filepath"
	"syscall"
	"testing"
	"time"

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

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
