package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"peak/internal/bench"
	"peak/internal/core"
	"peak/internal/experiments"
	"peak/internal/fault"
	"peak/internal/machine"
	"peak/internal/noise"
	"peak/internal/opt"
	"peak/internal/workloads"
)

// Request is the POST /tune body: which benchmark to tune on which
// machine, and optionally a forced rating method, tuning dataset, noise
// regime and flag subset. The zero values mean "same defaults as cmd/peak":
// consultant-chosen method, train dataset, the machine's calibrated noise
// model, all 38 tunable flags.
type Request struct {
	Bench   string `json:"bench"`
	Machine string `json:"machine"`
	// Method forces a rating method (CBR, MBR, RBR, AVG, WHL); empty
	// leaves the choice to the consultant, exactly like cmd/peak without
	// -method.
	Method string `json:"method,omitempty"`
	// Dataset is "train" (default) or "ref": the dataset the job profiles
	// and tunes on, with or without a forced method (cmd/peak -dataset).
	Dataset string `json:"dataset,omitempty"`
	// Noise names a stress regime (baseline, gauss4x, spikes, drift,
	// bursts); empty keeps the machine default, which "baseline" also
	// names.
	Noise string `json:"noise,omitempty"`
	// Faults names a fault-injection regime (f2, f5, f10, poison); empty
	// tunes fault-free. Injected faults deterministically change the
	// tune's result, so the regime is part of the job's identity.
	Faults string `json:"faults,omitempty"`
	// Flags restricts the Iterative Elimination search to this subset of
	// the tunable flag names (with or without the "-f" prefix); empty
	// searches all 38, as does a list naming all 38. Order and duplicates
	// are irrelevant: the set is canonicalized to ascending flag order,
	// which is part of the job's identity.
	Flags []string `json:"flags,omitempty"`
	// DeadlineMS is a per-job wall-clock deadline in milliseconds (0 uses
	// the server's -deadline default; negative, or too long for a
	// time.Duration, is invalid). A job that overruns it stops at the next
	// round boundary as "timed_out" with its completed rounds
	// checkpointed. The deadline is an operational knob, NOT part of the
	// job's identity: resubmitting the same spec with any deadline resumes
	// the same job.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// spec is a validated, canonicalized request: everything runJob needs,
// plus the canonical string that names the job. Two Requests that differ
// only in spelling (flag order, "-f" prefixes, duplicate flags, defaults
// spelled out) produce the same spec and therefore the same job.
type spec struct {
	bench   *bench.Benchmark
	mach    *machine.Machine
	force   *core.Method // nil = consultant choice
	dataset *bench.Dataset
	noise   *noise.Model // nil = machine default
	faults  *fault.Plan  // nil = fault-free
	// candidates is the canonical flag subset (ascending, deduped); nil
	// searches all flags.
	candidates []opt.Flag
	// deadline is the job's wall-clock budget (0 = server default; it is
	// operational state, never part of the canonical identity).
	deadline time.Duration

	// canonical is "bench/machine/method/dataset/noise/faults/flags" — the
	// checkpoint ID is "serve/" + canonical, and the job ID is a hash of
	// it. request is the re-marshaled canonical Request, stored so drain
	// can print an exact resubmission command.
	canonical string
	request   []byte
}

// parseSpec validates and canonicalizes a request. Errors are user
// errors — the HTTP layer maps them to 400.
func parseSpec(req Request) (spec, error) {
	var sp spec
	b, ok := workloads.ByName(req.Bench)
	if !ok {
		return sp, fmt.Errorf("unknown benchmark %q", req.Bench)
	}
	m, ok := machine.ByName(req.Machine)
	if !ok {
		return sp, fmt.Errorf("unknown machine %q", req.Machine)
	}
	sp.bench, sp.mach = b, m

	methodName := "auto"
	if req.Method != "" {
		mm, ok := core.ParseMethod(req.Method)
		if !ok {
			return sp, fmt.Errorf("unknown method %q", req.Method)
		}
		sp.force = &mm
		methodName = mm.String()
	}

	switch req.Dataset {
	case "", "train":
		sp.dataset = b.Train
	case "ref":
		sp.dataset = b.Ref
	default:
		return sp, fmt.Errorf("unknown dataset %q (want \"train\" or \"ref\")", req.Dataset)
	}

	// "baseline" is the machine's default model spelled out, so it names
	// the same job as no regime at all.
	noiseName := "default"
	if req.Noise != "" && req.Noise != "baseline" {
		regime, ok := experiments.RegimeByName(m, req.Noise)
		if !ok {
			return sp, fmt.Errorf("unknown noise regime %q", req.Noise)
		}
		model := regime.Model
		sp.noise = &model
		noiseName = regime.Name
	}

	faultsName := "none"
	if req.Faults != "" {
		regime, ok := experiments.FaultRegimeByName(req.Faults)
		if !ok {
			return sp, fmt.Errorf("unknown fault regime %q (want one of %s)",
				req.Faults, strings.Join(experiments.FaultRegimeNames(), ", "))
		}
		sp.faults = regime.Plan
		faultsName = regime.Name
	}

	if maxMS := int64(math.MaxInt64 / time.Millisecond); req.DeadlineMS < 0 || req.DeadlineMS > maxMS {
		return sp, fmt.Errorf("deadline_ms %d out of range [0, %d]", req.DeadlineMS, maxMS)
	}
	sp.deadline = time.Duration(req.DeadlineMS) * time.Millisecond

	flagsName := "all"
	if len(req.Flags) > 0 {
		seen := map[opt.Flag]bool{}
		for _, name := range req.Flags {
			f, ok := opt.FlagByName(name)
			if !ok {
				return sp, fmt.Errorf("unknown flag %q", name)
			}
			if !seen[f] {
				seen[f] = true
				sp.candidates = append(sp.candidates, f)
			}
		}
		// Candidate order is part of the tune's identity (it fixes
		// reduction order and tie-breaks); ascending flag order is the
		// canonical form. Every flag in that order is the engine's default
		// search, so it names the same job as no list.
		sort.Slice(sp.candidates, func(i, j int) bool { return sp.candidates[i] < sp.candidates[j] })
		if len(sp.candidates) == opt.NumFlags {
			sp.candidates = nil
		} else {
			names := make([]string, len(sp.candidates))
			for i, f := range sp.candidates {
				names[i] = f.String()
			}
			flagsName = strings.Join(names, ",")
		}
	}

	sp.canonical = fmt.Sprintf("%s/%s/%s/%s/%s/%s/%s",
		b.Name, m.Name, methodName, sp.dataset.Name, noiseName, faultsName, flagsName)
	canonReq := Request{Bench: b.Name, Machine: m.Name, Dataset: sp.dataset.Name}
	if sp.noise != nil {
		canonReq.Noise = noiseName
	}
	if sp.faults != nil {
		canonReq.Faults = faultsName
	}
	if sp.force != nil {
		canonReq.Method = sp.force.String()
	}
	if flagsName != "all" {
		canonReq.Flags = strings.Split(flagsName, ",")
	}
	sp.request, _ = json.Marshal(canonReq)
	return sp, nil
}

// id returns the job's content-addressed identifier: a short hash of the
// canonical spec. Identical requests — however they are spelled, whenever
// they are submitted — share one ID and therefore one job, which is what
// makes POST /tune idempotent and the per-job results independent of what
// else the server is running.
func (sp *spec) id() string {
	sum := sha256.Sum256([]byte(sp.canonical))
	return hex.EncodeToString(sum[:6])
}

// checkpointID is the job's key in the shared checkpoint journal. It
// embeds the full canonical spec (not just bench/machine/method/dataset,
// the engine default) so jobs differing only in noise regime or flag
// subset never share checkpoint state.
func (sp *spec) checkpointID() string { return "serve/" + sp.canonical }

// Job states. A job moves queued → running → one terminal state.
// "interrupted" (drain) and "timed_out" (deadline or watchdog) are
// resumable terminals: resubmitting the same spec re-queues the job, which
// continues from its last checkpointed round when a journal is attached.
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateDone        = "done"
	StateFailed      = "failed"
	StateInterrupted = "interrupted"
	StateTimedOut    = "timed_out"
)

// Result is the externally visible snapshot of a job, returned by POST
// /tune and GET /jobs/{id}. For a given spec the terminal Result is
// byte-identical however the job was scheduled: everything in it is
// derived from the deterministic tune, never from server state.
type Result struct {
	ID    string `json:"id"`
	Spec  string `json:"spec"`
	State string `json:"state"`
	// Request is the canonicalized request; re-POSTing it (to a server
	// with the same journal) resumes an interrupted job.
	Request json.RawMessage `json:"request"`
	// Result is the engine's ledger, present once the job is done.
	Result *core.TuneResult `json:"result,omitempty"`
	// Report is the canonical text report — byte-for-byte what cmd/peak
	// prints for the same arguments.
	Report string `json:"report,omitempty"`
	// Metrics is the job's formatted metrics table (per-job registry,
	// isolated from every other job).
	Metrics string `json:"metrics,omitempty"`
	Error   string `json:"error,omitempty"`
}

// jobArtifact is the persisted form of a finished job: everything the
// server re-serves for it, recorded in the warm-start store under
// core.MemoKindJob keyed by the canonical spec. json.Marshal renders it
// deterministically (fixed field order, sorted map keys), which is what
// lets the store's first-write-wins rule assume identical bytes from every
// writer of one spec.
type jobArtifact struct {
	// Request is the canonicalized request body (spec.request verbatim).
	Request json.RawMessage `json:"request"`
	// Result is the engine's full deterministic ledger.
	Result *core.TuneResult `json:"result"`
	// Report and Metrics are the rendered text artifacts.
	Report  string `json:"report"`
	Metrics string `json:"metrics"`
	// Trace is the job's flushed JSONL trace.
	Trace []byte `json:"trace"`
}

// job is the internal job record. mu guards the mutable fields; the spec
// and id are immutable after creation.
type job struct {
	id   string
	spec spec

	mu      sync.Mutex
	state   string
	res     *core.TuneResult
	report  string
	metrics string
	// traceData is the job's flushed JSONL trace (per-job buffer, seq
	// starting at 1 — isolated from every other job's).
	traceData []byte
	errMsg    string
}

func newJob(sp spec) *job {
	return &job{id: sp.id(), spec: sp, state: StateQueued}
}

func (j *job) setState(s string) {
	j.mu.Lock()
	j.state = s
	j.mu.Unlock()
}

// snapshot returns the job's Result under its lock.
func (j *job) snapshot() Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Result{
		ID:      j.id,
		Spec:    j.spec.canonical,
		State:   j.state,
		Request: json.RawMessage(j.spec.request),
		Result:  j.res,
		Report:  j.report,
		Metrics: j.metrics,
		Error:   j.errMsg,
	}
}

// terminalState reports whether s is a terminal job state.
func terminalState(s string) bool {
	return s == StateDone || s == StateFailed || s == StateInterrupted || s == StateTimedOut
}

// terminal reports whether the job has finished (in any way).
func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return terminalState(j.state)
}

func (j *job) trace() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.traceData, terminalState(j.state)
}
