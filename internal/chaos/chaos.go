// Package chaos is the serve layer's resilience proof: it drives a real
// in-process serve.Server (submitting through its actual HTTP handler)
// through a randomized-but-seeded schedule of injected engine faults,
// deadline expiries, graceful drains, circuit-breaker trips and hard
// restarts from a torn checkpoint journal — and asserts that none of it is
// observable in the results. Every spec's terminal job body must be
// byte-identical to its chaos-free baseline run, no spec may be lost or
// completed twice, and every injected journal tear must be detected and
// repaired on reopen.
//
// The schedule is a pure function of the seed: which specs get tiny
// deadlines, how much of an epoch is allowed to finish before the drain,
// and where the journal is torn are all drawn from one seeded stream. The
// *outcomes* (which jobs happened to finish before the drain, whether a
// deadline beat its tune) legitimately vary with machine speed — the
// harness's assertions are invariants that must hold on every
// interleaving, which is the point.
package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"peak/internal/opt"
	"peak/internal/serve"
	"peak/internal/store"
)

// Config parameterizes a chaos run.
type Config struct {
	// Jobs is the size of the spec pool (distinct canonical specs, max 88).
	Jobs int
	// Seed fixes the chaos schedule.
	Seed int64
	// Epochs is the number of chaos epochs (submit → partial progress →
	// drain → maybe tear the journal → restart) before the final cleanup
	// epoch that runs everything still pending to completion. <= 0 means 4.
	Epochs int
	// Dir is the scratch directory for the journal file ("" = a fresh
	// temp directory).
	Dir string
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
}

// Report is the outcome of a chaos run. Violations is the contract
// scorecard: an empty list means every assertion held.
type Report struct {
	Seed   int64
	Specs  int
	Epochs int

	// Completed counts specs that reached a terminal verdict (done or
	// failed — both are deterministic outcomes with baselines); Resumed
	// counts resubmissions of not-yet-settled jobs across restarts;
	// DeadlineTimeouts and WatchdogTimeouts count the jobs each epoch saw
	// end timed_out, once per job and epoch, told apart by the reason the
	// server gave.
	Completed        int
	Resumed          int
	DeadlineTimeouts int
	WatchdogTimeouts int

	// TearsInjected counts journal files deliberately damaged between
	// epochs; RecoveredRecords / DroppedBytes aggregate what the reopens
	// reported. BreakerOpens and BreakerShed503 come from the breaker
	// phase.
	TearsInjected    int
	RecoveredRecords int
	DroppedBytes     int
	BreakerOpens     int64
	BreakerShed503   int

	Violations []string
}

// Format renders the report as a human-readable summary.
func (r *Report) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "chaos: seed=%d specs=%d epochs=%d\n", r.Seed, r.Specs, r.Epochs)
	fmt.Fprintf(&sb, "  completed %d/%d spec(s), %d resume(s), %d deadline and %d watchdog timeout(s)\n",
		r.Completed, r.Specs, r.Resumed, r.DeadlineTimeouts, r.WatchdogTimeouts)
	fmt.Fprintf(&sb, "  journal: %d tear(s) injected, %d record(s) recovered, %d byte(s) dropped\n",
		r.TearsInjected, r.RecoveredRecords, r.DroppedBytes)
	fmt.Fprintf(&sb, "  breaker: %d open(s), %d request(s) shed with 503\n", r.BreakerOpens, r.BreakerShed503)
	if len(r.Violations) == 0 {
		fmt.Fprintf(&sb, "  PASS: no lost, duplicated or divergent jobs\n")
	} else {
		fmt.Fprintf(&sb, "  FAIL: %d violation(s)\n", len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(&sb, "    - %s\n", v)
		}
	}
	return sb.String()
}

func (r *Report) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// specCase is one pool entry: the canonical request and its baseline
// terminal body from a chaos-free run.
type specCase struct {
	req      serve.Request
	key      string // stable pool key (not the server's job ID)
	baseline []byte
	state    string // baseline terminal state (done or failed)
}

// genSpecs builds the deterministic spec pool: CBR tunes over rolling
// 3-flag windows of rotating benchmarks, with noise and fault regimes
// cycling through (including fault-free). The cycle lengths are coprime
// enough that the first 88 entries are distinct.
func genSpecs(n int) []*specCase {
	benches := []string{"BZIP2", "MGRID", "SWIM", "ART", "MCF", "TWOLF", "EQUAKE", "MESA"}
	noises := []string{"", "gauss4x", "spikes"}
	regimes := []string{"", "", "f2", "f5"} // half the pool tunes fault-free
	all := opt.AllFlags()
	specs := make([]*specCase, n)
	for i := range specs {
		start := (i * 3) % 33
		flags := all[start : start+3]
		names := make([]string, len(flags))
		for k, f := range flags {
			names[k] = f.String()
		}
		req := serve.Request{
			Bench:   benches[i%len(benches)],
			Machine: "sparc2",
			Method:  "CBR",
			Flags:   names,
			Noise:   noises[i%len(noises)],
			Faults:  regimes[i%len(regimes)],
		}
		specs[i] = &specCase{req: req, key: fmt.Sprintf("%s/%d/%s/%s", req.Bench, start, req.Noise, req.Faults)}
	}
	return specs
}

// harness wraps one server generation (a "process lifetime" between
// restarts) behind its real HTTP handler.
type harness struct {
	srv *serve.Server
	ts  *httptest.Server
}

func startHarness(opts serve.Options) *harness {
	s := serve.New(opts)
	s.Start()
	return &harness{srv: s, ts: httptest.NewServer(s.Handler())}
}

// stop drains the server and closes the listener (the graceful half of a
// restart; the journal tear afterwards is the crash half).
func (h *harness) stop() {
	h.ts.Close()
	h.srv.Drain()
}

// post submits a request through the HTTP handler and returns the decoded
// body and status code.
func (h *harness) post(req serve.Request) (serve.Result, int, error) {
	body, _ := json.Marshal(req)
	resp, err := http.Post(h.ts.URL+"/tune", "application/json", bytes.NewReader(body))
	if err != nil {
		return serve.Result{}, 0, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var res serve.Result
	json.Unmarshal(data, &res)
	return res, resp.StatusCode, nil
}

// bodyOf is the byte-identity unit: the job snapshot serialized exactly as
// the HTTP layer serves it (indented JSON + newline), but readable after
// the listener is gone.
func bodyOf(res serve.Result) ([]byte, error) {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// settled reports whether the spec reached a deterministic terminal
// verdict (done or failed); resumable terminals (interrupted, timed_out)
// are not settled — they go back in the pool.
func settled(state string) bool {
	return state == serve.StateDone || state == serve.StateFailed
}

func terminal(state string) bool {
	return settled(state) || state == serve.StateInterrupted || state == serve.StateTimedOut
}

// tearJournal damages the journal file the way a SIGKILL mid-write would:
// either truncating the final record's frame (torn write) or flipping one
// byte inside it (media corruption the CRC must catch). Returns false when
// the file holds no complete record to damage.
func tearJournal(path string, rng *rand.Rand) (bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	b := store.JournalBoundaries(data)
	if len(b) < 2 {
		return false, nil
	}
	lastStart, frameLen := b[len(b)-2], b[len(b)-1]-b[len(b)-2]
	if rng.Intn(2) == 0 {
		// Torn write: keep a strict, nonempty prefix of the last frame.
		data = data[:lastStart+1+rng.Intn(frameLen-1)]
	} else {
		// Bit rot: flip one byte inside the last record's frame.
		pos := lastStart + rng.Intn(frameLen)
		data = append([]byte(nil), data...)
		data[pos] ^= 0x20
	}
	return true, os.WriteFile(path, data, 0o644)
}

// Run executes the chaos schedule and returns its report. An error means
// the harness itself could not run (I/O, setup); contract breaches are
// reported as Violations, not errors.
func Run(cfg Config) (*Report, error) {
	if cfg.Jobs <= 0 {
		cfg.Jobs = 20
	}
	if cfg.Jobs > 88 {
		cfg.Jobs = 88
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 4
	}
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	dir := cfg.Dir
	if dir == "" {
		d, err := os.MkdirTemp("", "peak-chaos-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(d)
		dir = d
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	specs := genSpecs(cfg.Jobs)
	rep := &Report{Seed: cfg.Seed, Specs: len(specs)}

	// Baseline pass: every spec on a clean, undisturbed server. These
	// bodies are the byte-identity references for the whole run.
	logf("chaos: baseline pass over %d spec(s)", len(specs))
	if err := runBaseline(specs); err != nil {
		return nil, err
	}

	// Chaos epochs: each is one server "process lifetime" over the shared
	// journal file. Specs keep being resubmitted until they settle.
	journalPath := filepath.Join(dir, store.JournalFile)
	j, err := store.NewJournal(journalPath)
	if err != nil {
		return nil, err
	}
	completed := map[string][]byte{} // pool key -> terminal body
	// lastSeen holds each unsettled spec's last observed state and error,
	// so a lost spec's violation says where it stopped.
	lastSeen := map[string]string{}
	submittedBefore := map[string]bool{}
	for epoch := 1; epoch <= cfg.Epochs+1; epoch++ {
		var pending []*specCase
		for _, sc := range specs {
			if _, ok := completed[sc.key]; !ok {
				pending = append(pending, sc)
			}
		}
		if len(pending) == 0 {
			break
		}
		rep.Epochs = epoch
		cleanup := epoch == cfg.Epochs+1
		logf("chaos: epoch %d (%d pending, cleanup=%v)", epoch, len(pending), cleanup)

		h := startHarness(serve.Options{
			Workers: 4, Jobs: 2, Queue: len(specs) + 4,
			Journal:       j,
			WatchdogStall: 10 * time.Second,
		})
		ids := make(map[string]string, len(pending))
		for _, sc := range pending {
			req := sc.req
			// A third of chaos-epoch submissions carry a tiny deadline —
			// some of those tunes get canceled at a round boundary and must
			// resume cleanly later. The cleanup epoch runs undisturbed.
			if !cleanup && rng.Intn(3) == 0 {
				req.DeadlineMS = int64(1 + rng.Intn(3))
			}
			res, code, err := h.post(req)
			if err != nil {
				h.stop()
				return nil, err
			}
			if code != http.StatusAccepted && code != http.StatusOK {
				rep.violate("epoch %d: spec %s refused with %d (%s)", epoch, sc.key, code, res.Error)
				lastSeen[sc.key] = fmt.Sprintf("epoch %d: refused with %d (%s)", epoch, code, res.Error)
				continue
			}
			ids[sc.key] = res.ID
			if submittedBefore[sc.key] {
				rep.Resumed++
			}
			submittedBefore[sc.key] = true
		}

		// Let a seeded fraction of the epoch finish (everything, for the
		// cleanup epoch), then pull the rug.
		target := len(ids)
		if !cleanup && target > 1 {
			target = 1 + rng.Intn(target)
		}
		waitUntil := time.Now().Add(120 * time.Second)
		for {
			terminalNow := 0
			for _, id := range ids {
				if res, ok := h.srv.Job(id); ok && terminal(res.State) {
					terminalNow++
				}
			}
			if terminalNow >= target || time.Now().After(waitUntil) {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}

		// Harvest settled verdicts, drain (which settles or interrupts the
		// rest), then harvest what the drain finished. Exactly-once: a key
		// already in completed is never overwritten — a second settle for
		// the same spec would be a duplicated job. A timed-out job stays
		// timed out across the drain, so both harvests see it; it counts
		// once.
		timedOut := map[string]bool{}
		harvest := func() error {
			for key, id := range ids {
				res, found := h.srv.Job(id)
				if !found {
					lastSeen[key] = fmt.Sprintf("epoch %d: job %s not found", epoch, id)
					continue
				}
				if res.State == serve.StateTimedOut && !timedOut[key] {
					timedOut[key] = true
					if strings.HasPrefix(res.Error, "watchdog:") {
						rep.WatchdogTimeouts++
					} else {
						rep.DeadlineTimeouts++
					}
				}
				if !settled(res.State) {
					lastSeen[key] = fmt.Sprintf("epoch %d: %s (%s)", epoch, res.State, res.Error)
					continue
				}
				if _, ok := completed[key]; ok {
					continue
				}
				body, err := bodyOf(res)
				if err != nil {
					return err
				}
				completed[key] = body
				rep.Completed++
			}
			return nil
		}
		if err := harvest(); err != nil {
			return nil, err
		}
		h.stop()
		if err := harvest(); err != nil {
			return nil, err
		}

		if err := j.Close(); err != nil {
			return nil, err
		}
		// Crash half of the restart: between epochs, sometimes damage the
		// journal the way a kill mid-write would. Reopen must detect the
		// damage, drop only the broken tail, and resume from the previous
		// checkpoint to identical bytes. A schedule whose draws tore nothing
		// by its last chaos epoch — the configured last one, or an earlier
		// one that settled every spec — tears it then, so every run
		// exercises torn-journal recovery at least once (when the journal
		// holds a complete record).
		torn := false
		lastChance := rep.TearsInjected == 0 && (epoch == cfg.Epochs || len(completed) == len(specs))
		if !cleanup && (rng.Intn(2) == 0 || lastChance) {
			torn, err = tearJournal(journalPath, rng)
			if err != nil {
				return nil, err
			}
			if torn {
				rep.TearsInjected++
				logf("chaos: epoch %d tore the journal", epoch)
			}
		}
		j, err = store.OpenJournal(journalPath)
		if err != nil {
			return nil, err
		}
		rec := j.Recovery()
		rep.RecoveredRecords += rec.Records
		rep.DroppedBytes += rec.DroppedBytes
		if torn && rec.DroppedBytes == 0 {
			rep.violate("epoch %d: journal was torn but recovery dropped nothing (%s)", epoch, rec.String())
		}
		logf("chaos: %s", rec.String())
	}
	j.Close()

	// The scorecard: nothing lost, nothing divergent.
	for _, sc := range specs {
		body, ok := completed[sc.key]
		if !ok {
			rep.violate("spec %s lost: never reached a terminal verdict; last seen %s", sc.key, lastSeen[sc.key])
			continue
		}
		if !bytes.Equal(body, sc.baseline) {
			rep.violate("spec %s diverged from its chaos-free baseline:\n--- baseline\n%s\n--- chaos\n%s",
				sc.key, sc.baseline, body)
		}
	}

	// Breaker phase: deterministic failure storms must shed load without
	// touching finished results.
	logf("chaos: breaker phase")
	if err := runBreakerPhase(specs, rep, logf); err != nil {
		return nil, err
	}
	return rep, nil
}

// runBaseline runs every spec to a terminal verdict on an undisturbed
// server and records the reference bodies.
func runBaseline(specs []*specCase) error {
	h := startHarness(serve.Options{Workers: 4, Jobs: 2, Queue: len(specs) + 4})
	defer h.stop()
	ids := make([]string, len(specs))
	for i, sc := range specs {
		res, code, err := h.post(sc.req)
		if err != nil {
			return err
		}
		if code != http.StatusAccepted && code != http.StatusOK {
			return fmt.Errorf("baseline: spec %s refused with %d (%s)", sc.key, code, res.Error)
		}
		ids[i] = res.ID
	}
	deadline := time.Now().Add(300 * time.Second)
	for i, sc := range specs {
		for {
			res, ok := h.srv.Job(ids[i])
			if !ok {
				return fmt.Errorf("baseline: job %s disappeared", ids[i])
			}
			if settled(res.State) {
				body, err := bodyOf(res)
				if err != nil {
					return err
				}
				sc.baseline, sc.state = body, res.State
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("baseline: spec %s stuck in %s", sc.key, res.State)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// runBreakerPhase trips the breaker with poison jobs and asserts the
// degraded-mode contract: 503 for fresh work, 200 for known specs, and a
// probe that closes the breaker after the cooldown.
func runBreakerPhase(specs []*specCase, rep *Report, logf func(string, ...any)) error {
	h := startHarness(serve.Options{
		Workers: 2, Jobs: 1, Queue: 16,
		BreakerFailures: 2, BreakerCooldown: 300 * time.Millisecond,
	})
	defer h.stop()

	// A healthy job first: its finished result must survive the storm.
	var doneSpec *specCase
	for _, sc := range specs {
		if sc.state == serve.StateDone {
			doneSpec = sc
			break
		}
	}
	if doneSpec == nil {
		rep.violate("breaker phase: no baseline spec completed as done")
		return nil
	}
	res, code, err := h.post(doneSpec.req)
	if err != nil {
		return err
	}
	if code != http.StatusAccepted && code != http.StatusOK {
		rep.violate("breaker phase: healthy job refused with %d", code)
		return nil
	}
	healthyID := res.ID
	if err := waitSettled(h, healthyID); err != nil {
		return err
	}

	// Two poison jobs fail deterministically and trip the breaker.
	all := opt.AllFlags()
	for i := 0; i < 2; i++ {
		req := serve.Request{Bench: "BZIP2", Machine: "sparc2", Method: "CBR",
			Faults: "poison", Flags: []string{all[33+i].String()}}
		res, code, err := h.post(req)
		if err != nil {
			return err
		}
		if code != http.StatusAccepted {
			rep.violate("breaker phase: poison job %d refused with %d (%s)", i, code, res.Error)
			return nil
		}
		if err := waitSettled(h, res.ID); err != nil {
			return err
		}
	}
	st := h.srv.Stats()
	if st.Breaker == nil || st.Breaker.State != serve.BreakerOpen {
		rep.violate("breaker phase: breaker not open after 2 consecutive failures (%+v)", st.Breaker)
		return nil
	}
	rep.BreakerOpens = st.Breaker.Opens

	// Fresh work is shed with 503 + Retry-After; the finished job's spec
	// still answers 200 with unchanged bytes.
	fresh := serve.Request{Bench: "BZIP2", Machine: "sparc2", Method: "CBR",
		Flags: []string{all[36].String()}}
	body, _ := json.Marshal(fresh)
	resp, err := http.Post(h.ts.URL+"/tune", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		rep.violate("breaker phase: fresh spec while open got %d, want 503", resp.StatusCode)
	} else {
		rep.BreakerShed503++
		if resp.Header.Get("Retry-After") == "" {
			rep.violate("breaker phase: 503 carried no Retry-After")
		}
	}
	if _, code, err := h.post(doneSpec.req); err != nil {
		return err
	} else if code != http.StatusOK {
		rep.violate("breaker phase: duplicate of a done spec got %d while open, want 200", code)
	}
	snap, ok := h.srv.Job(healthyID)
	if !ok {
		return fmt.Errorf("breaker phase: job %s disappeared", healthyID)
	}
	chk, err := bodyOf(snap)
	if err != nil {
		return err
	}
	if !bytes.Equal(chk, doneSpec.baseline) {
		rep.violate("breaker phase: done job's body changed while the breaker was open")
	}

	// After the cooldown one healthy probe closes the breaker again.
	time.Sleep(400 * time.Millisecond)
	probe := serve.Request{Bench: "BZIP2", Machine: "sparc2", Method: "CBR",
		Flags: []string{all[37].String()}}
	res, code, err = h.post(probe)
	if err != nil {
		return err
	}
	if code != http.StatusAccepted {
		rep.violate("breaker phase: probe after cooldown refused with %d (%s)", code, res.Error)
		return nil
	}
	if err := waitSettled(h, res.ID); err != nil {
		return err
	}
	if st := h.srv.Stats(); st.Breaker.State != serve.BreakerClosed {
		rep.violate("breaker phase: breaker still %s after a successful probe", st.Breaker.State)
	}
	logf("chaos: breaker phase done (opens=%d)", rep.BreakerOpens)
	return nil
}

func waitSettled(h *harness, id string) error {
	deadline := time.Now().Add(120 * time.Second)
	for {
		res, ok := h.srv.Job(id)
		if !ok {
			return fmt.Errorf("job %s disappeared", id)
		}
		if settled(res.State) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s stuck in %s", id, res.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
