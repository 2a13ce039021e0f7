// Command peak-serve runs the PEAK tuning service: a long-running
// HTTP/JSON daemon that accepts tuning jobs, runs them concurrently on a
// shared scheduler pool with a process-wide compile cache, and serves
// results, per-job traces and reports, health and statistics.
//
// A job's result, report and trace are byte-identical whether it ran
// alone or with any number of concurrent neighbours, shared cache on or
// off — and the report is byte-for-byte what cmd/peak prints for the same
// arguments (the tier-1 smoke check asserts this via -smoke).
//
// On SIGINT/SIGTERM the server drains gracefully: running jobs stop at
// their next tuning-round boundary, queued jobs are set aside, and — with
// -cache-dir — every completed round is checkpointed in the directory's
// journal, so re-POSTing an interrupted job's request to a server
// restarted on the same directory resumes it byte-identically. The drain
// prints one resume command per interrupted job. The journal is
// crash-safe beyond the graceful path: records are CRC-framed, so a
// SIGKILL mid-write loses at most the torn final record, which the
// restart detects, drops and reports.
//
// The resilience knobs (all off by default) bound how badly a job or a
// failure storm can hurt the service: -deadline caps any job's wall time
// (per-request deadline_ms overrides it), -watchdog cancels a job whose
// round polls come further apart than its bound (the first gap runs from
// the job's start), and -breaker-failures arms a circuit breaker that
// sheds new work with 503 after that many consecutive job failures while
// finished results keep serving. The deadline and the watchdog are both
// checked at the job's round poll, before each Iterative Elimination
// round, so timed-out jobs keep their checkpoints — resubmitting resumes
// them.
//
// Usage:
//
//	peak-serve -addr :8080                      # serve
//	peak-serve -jobs 4 -workers 8 -queue 32     # 4 concurrent jobs on 8 lanes
//	peak-serve -cache-dir peak-cache            # warm start, checkpoint + resume
//	peak-serve -deadline 2m -watchdog 30s       # per-job wall-clock bounds
//	peak-serve -breaker-failures 5              # shed load after 5 straight failures
//	peak-serve -smoke MGRID/sparc2              # one job end to end, report on stdout
//
//	curl -X POST localhost:8080/tune -d '{"bench":"MGRID","machine":"sparc2"}'
//	curl localhost:8080/jobs/<id>
//	curl localhost:8080/jobs/<id>/report
//	curl localhost:8080/jobs/<id>/trace
//	curl localhost:8080/stats
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"peak/internal/serve"
	"peak/internal/store"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 1, "with -jobs, the shared pool's lane budget max(workers, jobs) (0 = GOMAXPROCS): each running job holds a lane and its ratings borrow the idle ones; any value gives identical job results")
		jobs     = flag.Int("jobs", 2, "jobs allowed to run concurrently")
		queueCap = flag.Int("queue", 16, "job queue capacity (full queue refuses with 429 + Retry-After)")
		noCache  = flag.Bool("nocache", false, "private per-job compile caches, profiles and measurements instead of the shared ones (results identical either way)")
		cacheDir = flag.String("cache-dir", "", "persistent state directory: compile cache, profiles, rating memos and finished jobs survive restarts, and jobs checkpoint every round and resume across restarts (results identical either way)")
		smoke    = flag.String("smoke", "", `run one job end to end and print its report ("BENCH/machine", e.g. "MGRID/sparc2")`)

		deadline = flag.Duration("deadline", 0, "default per-job wall-clock deadline (0 = none; a request's deadline_ms overrides it)")
		watchdog = flag.Duration("watchdog", 0, "cancel running jobs that make no round progress for this long (0 = off)")
		brkFails = flag.Int("breaker-failures", 0, "consecutive job failures that trip the circuit breaker (0 = off)")
		brkCool  = flag.Duration("breaker-cooldown", 30*time.Second, "open-breaker cooldown before a probe job is admitted")
		quarStrm = flag.Int("quarantine-storm", 0, "quarantined flags per job that count as a breaker failure (0 = off)")

		readHdrTimeout = flag.Duration("read-header-timeout", 10*time.Second, "http.Server ReadHeaderTimeout (slowloris bound)")
		writeTimeout   = flag.Duration("write-timeout", 30*time.Second, "http.Server WriteTimeout")
		idleTimeout    = flag.Duration("idle-timeout", 120*time.Second, "http.Server IdleTimeout")
	)
	flag.Parse()

	opts := serve.Options{
		Workers:         *workers,
		Jobs:            *jobs,
		Queue:           *queueCap,
		NoSharedCache:   *noCache,
		Deadline:        *deadline,
		WatchdogStall:   *watchdog,
		BreakerFailures: *brkFails,
		BreakerCooldown: *brkCool,
		QuarantineStorm: *quarStrm,
	}
	journalPath := filepath.Join(*cacheDir, store.JournalFile)
	if *cacheDir != "" {
		st, err := store.Open(*cacheDir)
		if err != nil {
			fatalf("%v", err)
		}
		// Say what recovery repaired (a SIGKILL mid-write loses at most
		// the torn tail; corrupt records are dropped).
		if rec := st.Recovery(); rec.TornTail || rec.HeaderInvalid || rec.DroppedBodies > 0 || rec.DroppedAliases > 0 {
			fmt.Fprintf(os.Stderr, "peak-serve: store recovery: %d records kept, %d bytes dropped (torn=%v header_invalid=%v bodies_dropped=%d aliases_dropped=%d)\n",
				rec.Records, rec.DroppedBytes, rec.TornTail, rec.HeaderInvalid, rec.DroppedBodies, rec.DroppedAliases)
		}
		opts.Store = st
		j, err := store.OpenJournal(journalPath)
		if err != nil {
			fatalf("%v", err)
		}
		if rec := j.Recovery(); rec.Records > 0 || rec.DroppedBytes > 0 {
			fmt.Fprintf(os.Stderr, "peak-serve: %s\n", rec.String())
		}
		opts.Journal = j
		defer j.Close()
	}

	s := serve.New(opts)
	s.Start()

	if *smoke != "" {
		code := runSmoke(s, *smoke)
		s.Drain() // flushes the -cache-dir store
		os.Exit(code)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("listen: %v", err)
	}
	// The HTTP timeouts bound connection-level abuse: a client trickling
	// its request headers (slowloris), a stalled response write, or an idle
	// keep-alive hoard can no longer pin goroutines and file descriptors
	// forever. Long-poll clients are unaffected — job polling is GET with
	// small bodies well inside these bounds.
	httpSrv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: *readHdrTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}
	fmt.Fprintf(os.Stderr, "peak-serve: listening on %s (%d job slot(s), %d lane(s), queue %d)\n",
		ln.Addr(), *jobs, s.Stats().Pool.Lanes, *queueCap)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "peak-serve: draining (running jobs stop at their next round boundary)...")
		interrupted := s.Drain()
		for _, r := range interrupted {
			fmt.Fprintf(os.Stderr, "peak-serve: job %s %s (%s)\n", r.ID, r.State, r.Spec)
			fmt.Fprintf(os.Stderr, "peak-serve:   resume with: curl -X POST <addr>/tune -d '%s'\n", string(r.Request))
		}
		if opts.Journal != nil && len(interrupted) > 0 {
			fmt.Fprintf(os.Stderr, "peak-serve: checkpoint journal %s synced; restart with -cache-dir %s to resume from the last completed round\n",
				journalPath, *cacheDir)
		}
		httpSrv.Close()
	}()

	if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fatalf("serve: %v", err)
	}
}

// runSmoke drives one job through the real HTTP stack on a loopback
// listener and prints its report to stdout — the tier-1 smoke check diffs
// that against cmd/peak's output for the same benchmark and machine.
func runSmoke(s *serve.Server, spec string) int {
	parts := strings.SplitN(spec, "/", 2)
	if len(parts) != 2 {
		fmt.Fprintf(os.Stderr, "peak-serve: -smoke wants BENCH/machine, got %q\n", spec)
		return 1
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatalf("listen: %v", err)
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()

	body, _ := json.Marshal(serve.Request{Bench: parts[0], Machine: parts[1]})
	resp, err := http.Post(base+"/tune", "application/json", bytes.NewReader(body))
	if err != nil {
		fatalf("smoke: submit: %v", err)
	}
	var res serve.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		fatalf("smoke: decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		fatalf("smoke: submit returned %d: %s", resp.StatusCode, res.Error)
	}

	for {
		resp, err := http.Get(base + "/jobs/" + res.ID)
		if err != nil {
			fatalf("smoke: poll: %v", err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			fatalf("smoke: decode: %v", err)
		}
		resp.Body.Close()
		if res.State == serve.StateDone || res.State == serve.StateFailed || res.State == serve.StateInterrupted {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if res.State != serve.StateDone {
		fmt.Fprintf(os.Stderr, "peak-serve: smoke job ended %s: %s\n", res.State, res.Error)
		return 1
	}
	resp, err = http.Get(base + "/jobs/" + res.ID + "/report")
	if err != nil {
		fatalf("smoke: report: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fatalf("smoke: report: status %d", resp.StatusCode)
	}
	if _, err := io.Copy(os.Stdout, resp.Body); err != nil {
		fatalf("smoke: report: %v", err)
	}
	return 0
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "peak-serve: "+format+"\n", args...)
	os.Exit(1)
}
