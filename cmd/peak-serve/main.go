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
// -journal — every completed round is checkpointed, so re-POSTing an
// interrupted job's request to a restarted server resumes it
// byte-identically. The drain prints one resume command per interrupted
// job. The journal is crash-safe beyond the graceful path: records are
// CRC-framed, so a SIGKILL mid-write loses at most the torn final record,
// which the restart detects, drops and reports.
//
// The resilience knobs (all off by default) bound how badly a job or a
// failure storm can hurt the service: -deadline caps any job's wall time
// (per-request deadline_ms overrides it), -watchdog cancels jobs that stop
// making round progress, and -breaker-failures arms a circuit breaker that
// sheds new work with 503 after that many consecutive job failures while
// finished results keep serving. Timed-out jobs keep their checkpoints —
// resubmitting resumes them.
//
// Usage:
//
//	peak-serve -addr :8080                      # serve
//	peak-serve -jobs 4 -workers 8 -queue 32     # 4 concurrent jobs
//	peak-serve -journal serve.jsonl             # checkpoint + resume
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
	"strings"
	"syscall"
	"time"

	"peak"
	"peak/internal/serve"
	"peak/internal/store"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 1, "shared scheduler pool width (0 = GOMAXPROCS); any value gives identical job results")
		jobs     = flag.Int("jobs", 2, "jobs allowed to run concurrently")
		queueCap = flag.Int("queue", 16, "job queue capacity (full queue refuses with 429 + Retry-After)")
		noCache  = flag.Bool("nocache", false, "private per-job compile caches, profiles and measurements instead of the shared ones (results identical either way)")
		journal  = flag.String("journal", "", "checkpoint journal path: jobs checkpoint every round and resume across restarts")
		cacheDir = flag.String("cache-dir", "", "persistent warm-start store directory: compile cache, rating memos and finished jobs survive restarts (results identical either way)")
		smoke    = flag.String("smoke", "", `run one job end to end and print its report ("BENCH/machine", e.g. "MGRID/sparc2"); with -cache-dir, also drain, reboot from the store and assert the re-served artifacts are byte-identical`)

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
		JournalPath:     *journal,
		Deadline:        *deadline,
		WatchdogStall:   *watchdog,
		BreakerFailures: *brkFails,
		BreakerCooldown: *brkCool,
		QuarantineStorm: *quarStrm,
	}
	if *journal != "" {
		var j *peak.Journal
		var err error
		if _, statErr := os.Stat(*journal); statErr == nil {
			j, err = peak.OpenJournal(*journal)
		} else {
			j, err = peak.NewJournal(*journal)
		}
		if err != nil {
			fatalf("%v", err)
		}
		// Surface what recovery found: after a SIGKILL the journal may have
		// lost its torn tail record — say so, and say it was repaired.
		if rec := j.Recovery(); rec.Records > 0 || rec.DroppedBytes > 0 {
			fmt.Fprintf(os.Stderr, "peak-serve: %s\n", rec.String())
		}
		opts.Journal = j
		defer j.Close()
	}
	if *cacheDir != "" {
		st, err := store.Open(*cacheDir)
		if err != nil {
			fatalf("%v", err)
		}
		// Like the journal, say what recovery repaired (a SIGKILL mid-flush
		// loses at most the torn tail; corrupt records are dropped).
		if rec := st.Recovery(); rec.TornTail || rec.HeaderInvalid || rec.DroppedBodies > 0 || rec.DroppedAliases > 0 {
			fmt.Fprintf(os.Stderr, "peak-serve: store recovery: %d records kept, %d bytes dropped (torn=%v header_invalid=%v bodies_dropped=%d aliases_dropped=%d)\n",
				rec.Records, rec.DroppedBytes, rec.TornTail, rec.HeaderInvalid, rec.DroppedBodies, rec.DroppedAliases)
		}
		opts.Store = st
	}

	s := serve.New(opts)
	s.Start()

	if *smoke != "" {
		cold, code := runSmoke(s, *smoke)
		if code == 0 && *cacheDir != "" {
			// Drain flushes the store; the warm phase reboots from it.
			s.Drain()
			code = runWarmRestart(opts, *smoke, *cacheDir, cold)
		}
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
	fmt.Fprintf(os.Stderr, "peak-serve: listening on %s (%d job slot(s), pool width %d, queue %d)\n",
		ln.Addr(), *jobs, *workers, *queueCap)

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
		if *journal != "" && len(interrupted) > 0 {
			fmt.Fprintf(os.Stderr, "peak-serve: checkpoint journal %s synced; restart with -journal %s to resume from the last completed round\n",
				*journal, *journal)
		}
		httpSrv.Close()
	}()

	if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fatalf("serve: %v", err)
	}
}

// smokeArtifacts is everything the smoke job served, captured raw so the
// warm-restart phase can assert byte-identity.
type smokeArtifacts struct {
	id                  string
	body, report, trace []byte
}

// fetch GETs url and returns the raw body, failing the process on a
// transport error or unexpected status.
func fetch(base, path string, wantCode int) []byte {
	resp, err := http.Get(base + path)
	if err != nil {
		fatalf("smoke: GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		fatalf("smoke: GET %s: %v", path, err)
	}
	if resp.StatusCode != wantCode {
		fatalf("smoke: GET %s: status %d, want %d", path, resp.StatusCode, wantCode)
	}
	return data
}

// runSmoke drives one job through the real HTTP stack on a loopback
// listener and prints its report to stdout — the tier-1 smoke check diffs
// that against cmd/peak's output for the same benchmark and machine. The
// job's raw served artifacts are returned for the warm-restart phase.
func runSmoke(s *serve.Server, spec string) (smokeArtifacts, int) {
	parts := strings.SplitN(spec, "/", 2)
	if len(parts) != 2 {
		fmt.Fprintf(os.Stderr, "peak-serve: -smoke wants BENCH/machine, got %q\n", spec)
		return smokeArtifacts{}, 1
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
		return smokeArtifacts{}, 1
	}
	arts := smokeArtifacts{
		id:     res.ID,
		body:   fetch(base, "/jobs/"+res.ID, http.StatusOK),
		report: fetch(base, "/jobs/"+res.ID+"/report", http.StatusOK),
		trace:  fetch(base, "/jobs/"+res.ID+"/trace", http.StatusOK),
	}
	if _, err := os.Stdout.Write(arts.report); err != nil {
		fatalf("smoke: report: %v", err)
	}
	return arts, 0
}

// runWarmRestart is the -smoke warm phase: reboot a fresh server in-process
// from the flushed -cache-dir store, resubmit the same request, and assert
// the restored job re-serves the cold run's body, report and trace
// byte-for-byte without simulating (zero pool cycles). The summary goes to
// stderr; stdout stays the cold report only, so the tier-1 smoke diff is
// unchanged.
func runWarmRestart(opts serve.Options, spec, cacheDir string, cold smokeArtifacts) int {
	parts := strings.SplitN(spec, "/", 2)
	st, err := store.Open(cacheDir)
	if err != nil {
		fatalf("warm restart: %v", err)
	}
	opts.Store = st
	opts.Journal = nil // the smoke job finished; nothing to resume
	s := serve.New(opts)
	s.Start()
	defer s.Drain()
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
		fatalf("warm restart: submit: %v", err)
	}
	var res serve.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		fatalf("warm restart: decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || res.State != serve.StateDone {
		fmt.Fprintf(os.Stderr, "peak-serve: warm restart: job not restored (status %d, state %s)\n", resp.StatusCode, res.State)
		return 1
	}
	ok := true
	for _, c := range []struct {
		name string
		path string
		want []byte
	}{
		{"body", "/jobs/" + res.ID, cold.body},
		{"report", "/jobs/" + res.ID + "/report", cold.report},
		{"trace", "/jobs/" + res.ID + "/trace", cold.trace},
	} {
		if got := fetch(base, c.path, http.StatusOK); !bytes.Equal(got, c.want) {
			fmt.Fprintf(os.Stderr, "peak-serve: warm restart: re-served %s differs from the cold run (%d vs %d bytes)\n",
				c.name, len(got), len(c.want))
			ok = false
		}
	}
	stats := s.Stats()
	if stats.Pool.Cycles != 0 {
		fmt.Fprintf(os.Stderr, "peak-serve: warm restart: %d simulator cycles spent re-serving, want 0\n", stats.Pool.Cycles)
		ok = false
	}
	if !ok {
		return 1
	}
	restored := int64(0)
	if stats.Store != nil {
		restored = stats.Store.RestoredJobs
	}
	fmt.Fprintf(os.Stderr, "peak-serve: warm restart from %s: job %s re-served byte-identical (report %d B, trace %d B), %d job(s) restored, 0 simulator cycles\n",
		cacheDir, res.ID, len(cold.report), len(cold.trace), restored)
	return 0
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "peak-serve: "+format+"\n", args...)
	os.Exit(1)
}
