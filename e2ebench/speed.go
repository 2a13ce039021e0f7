package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

// The benchmark's hosts are shared virtual machines whose speed drifts by
// tens of percent within minutes as neighbours come and go: ten
// back-to-back runs of one seed measured serve-cold throughput from 2.9
// down to 1.7 jobs/s. So an untraced run times a fixed canary — code owned
// by the benchmark, which no change to the system can speed up or slow
// down — before its first pass, between the segments of a pass and after
// every pass, and scales each pass's timings to the reference host by
// canaryRefSeconds ÷ the median canary time sampled over the pass. A
// single canary time follows the host's speed only loosely; the median of
// the many a pass samples follows its drift. The canary is timed in CPU
// time and the load's wall times are corrected for steal (stealMeter), so
// the one tracks how fast the vCPUs run and the other how long they ran.
// The raw timings stay in the run record.
const (
	// canaryRefSeconds is canaryWork's median time on the reference host
	// (2 vCPUs) when calm.
	canaryRefSeconds = 0.045
	canaryRounds     = 3
	// canaryWorkers runs the canary on both vCPUs: it tracks the host's
	// drift better than one goroutine does, on table1's single-threaded
	// work as on the serve workloads.
	canaryWorkers  = 2
	canaryTableLen = 1 << 21 // 8 MB of uint32, larger than the caches
	// canaryEnv, when set, makes the binary (or the test binary) run the
	// canary and print its time instead of a workload.
	canaryEnv = "E2EBENCH_CANARY"
)

// speedometer samples the canary through a run. A nil speedometer (traced
// runs) samples and scales nothing.
type speedometer struct {
	times []float64
	// from indexes the first sample of the open pass: the one taken just
	// before it.
	from int
}

// newSpeedometer samples the canary before the first pass. A first,
// discarded sample lets the host's core come up to speed after the idle
// start of the run, which left the first time measurably slow.
func newSpeedometer() (*speedometer, error) {
	s := &speedometer{}
	if _, err := runCanary(); err != nil {
		return nil, err
	}
	return s, s.sample()
}

// sample times the canary once more, within the open pass.
func (s *speedometer) sample() error {
	if s == nil {
		return nil
	}
	c, err := runCanary()
	if err != nil {
		return err
	}
	s.times = append(s.times, c)
	return nil
}

// factor samples the canary after a pass and returns the factor that
// scales the pass's times to the reference host (its throughputs scale by
// the inverse). The closing sample opens the next pass.
func (s *speedometer) factor() (float64, error) {
	if s == nil {
		return 1, nil
	}
	if err := s.sample(); err != nil {
		return 0, err
	}
	k := canaryRefSeconds / summarize(s.times[s.from:]).Median
	s.from = len(s.times) - 1
	return k, nil
}

// runCanary times the canary in a fresh child process, so nothing the
// workload left behind — heap, goroutines, resident memory — touches it.
func runCanary() (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), canaryEnv+"=1")
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("canary: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// canaryChild is the child process's main: it runs canaryRounds rounds of
// canaryWork on canaryWorkers goroutines and prints the median time of one
// canaryWork. The tables are allocated and touched before any timing, so no
// round pays for page faults.
func canaryChild() {
	table := make([]uint32, canaryTableLen)
	for i := range table {
		table[i] = uint32(i) * 2246822519
	}
	locals := make([][]uint32, canaryWorkers)
	for g := range locals {
		locals[g] = make([]uint32, canaryTableLen/2)
		for i := range locals[g] {
			locals[g][i] = uint32(i)
		}
	}
	var times []float64
	var mu sync.Mutex
	for r := 0; r < canaryRounds; r++ {
		var wg sync.WaitGroup
		for g := 0; g < canaryWorkers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				t := canaryWork(table, locals[g])
				mu.Lock()
				times = append(times, t)
				mu.Unlock()
			}()
		}
		wg.Wait()
	}
	fmt.Println(summarize(times).Median)
}

// canaryWork is a fixed mix of integer arithmetic with data-dependent
// branches and, for about a tenth of its time, random reads and writes over
// tables larger than the caches — the kinds of work the simulator's
// interpreter does — timed in seconds of its thread's CPU time: how fast the
// vCPU runs, leaving out the time the hypervisor kept it from running, which
// the steal correction accounts for. A larger memory share made the canary
// swing with neighbours' cache traffic far more than the workload does.
func canaryWork(table, local []uint32) float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	x := uint64(88172645463325252)
	for i := 0; i < 12_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&7 == 3 {
			x += uint64(i)
		}
	}
	idx := uint32(x)
	for i := 0; i < 150_000; i++ {
		idx = table[idx&uint32(len(table)-1)] ^ uint32(i)*2654435761
		local[(idx>>3)&uint32(len(local)-1)] += idx
	}
	return threadCPU() - t0
}

// rusageThread is Linux's RUSAGE_THREAD.
const rusageThread = 1

// threadCPU is the calling thread's CPU time in seconds.
func threadCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// stealMeter measures the share of the time the VM's vCPUs wanted to run
// over a pass's load that the hypervisor ran other tenants instead (steal,
// from /proc/stat). Stolen time passes on the wall clock but runs nothing,
// and comes in bursts the canary's short samples miss, so the load's wall
// times are corrected for it directly: scaled by 1 − the stolen share. Where
// /proc/stat cannot be read the share is 0.
type stealMeter struct {
	at           cpuStat
	busy, stolen float64
}

// cpuStat is the all-CPU line of /proc/stat, in jiffies.
type cpuStat struct{ busy, steal float64 }

// start opens a measured interval.
func (m *stealMeter) start() { m.at = readCPUStat() }

// stop closes the interval and adds it to the totals.
func (m *stealMeter) stop() {
	now := readCPUStat()
	m.busy += now.busy - m.at.busy
	m.stolen += now.steal - m.at.steal
}

// share is the stolen share of the measured intervals.
func (m *stealMeter) share() float64 {
	if m.busy+m.stolen <= 0 {
		return 0
	}
	return m.stolen / (m.busy + m.stolen)
}

func readCPUStat() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}
	}
	var v [8]float64 // user nice system idle iowait irq softirq steal
	for i := range v {
		v[i], _ = strconv.ParseFloat(f[i+1], 64)
	}
	return cpuStat{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}

// timings are a run's timing samples, each kept raw and scaled to the
// reference host.
type timings struct {
	perPass, latMS, setupS [2][]float64 // [0] raw, [1] scaled
	// busy and stolen total the run's steal measurements.
	busy, stolen float64
	// rssMB is the memory retained after each pass.
	rssMB []float64
}

// pass adds one pass's samples: set-ups scaled by the canary factor k, the
// load's latencies by k and the share of its time not stolen (throughputs
// by the inverse).
func (t *timings) pass(k float64, steal *stealMeter, perPass float64, latMS, setupS []float64) {
	t.busy += steal.busy
	t.stolen += steal.stolen
	load := k * (1 - steal.share())
	t.perPass[0] = append(t.perPass[0], perPass)
	t.perPass[1] = append(t.perPass[1], perPass/load)
	for _, v := range latMS {
		t.latMS[0] = append(t.latMS[0], v)
		t.latMS[1] = append(t.latMS[1], v*load)
	}
	for _, v := range setupS {
		t.setupS[0] = append(t.setupS[0], v)
		t.setupS[1] = append(t.setupS[1], v*k)
	}
}

// emit records the scaled samples' summaries (a traced run scales by 1)
// and, for an untraced run (spd not nil), adds the end-to-end metrics: the
// timings from the scaled samples, their raw values kept in Info, and the
// median retained memory.
func (t *timings) emit(r *report, spd *speedometer) {
	r.LatencyMS, r.SetupS = summarize(t.latMS[1]), summarize(t.setupS[1])
	if spd == nil {
		return
	}
	r.Info["canary_s"] = summarize(spd.times).Median
	r.Info["canary_samples"] = float64(len(spd.times))
	if t.busy+t.stolen > 0 {
		r.Info["steal_share"] = t.stolen / (t.busy + t.stolen)
	}
	for i, scaled := range []bool{false, true} {
		add := func(name string, v float64, unit string) {
			if scaled {
				r.add(name, v, unit)
			} else {
				r.Info["raw_"+name] = v
			}
		}
		add("jobs_per_s", summarize(t.perPass[i]).Median, "jobs/s")
		add("job_gmean_ms", gmean(t.latMS[i]), "ms")
		add("setup_s", summarize(t.setupS[i]).Median, "s")
	}
	r.add("rss_mb", summarize(t.rssMB).Median, "MB")
}
