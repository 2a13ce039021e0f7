package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"peak/internal/cli"
	"peak/internal/core"
	"peak/internal/fault"
	"peak/internal/machine"
	"peak/internal/opt"
	"peak/internal/profiling"
	"peak/internal/sched"
	"peak/internal/workloads"
)

// subsetReq builds a fast tuning request: a forced method over a small
// flag subset keeps a job to a handful of ratings instead of a full
// 38-flag elimination.
func subsetReq(benchName string, flags []opt.Flag) Request {
	names := make([]string, len(flags))
	for i, f := range flags {
		names[i] = f.String()
	}
	return Request{Bench: benchName, Machine: "sparc2", Method: "CBR", Flags: names}
}

type artifacts struct {
	body   []byte // GET /jobs/{id} response
	report []byte
	trace  []byte
}

// runAll posts every request to a fresh server behind httptest, waits for
// all jobs to finish, and returns each job's artifacts keyed by canonical
// spec.
func runAll(t *testing.T, opts Options, reqs []Request) map[string]artifacts {
	t.Helper()
	s := New(opts)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain()

	ids := make([]string, len(reqs))
	for i, req := range reqs {
		res, code := post(t, ts.URL, req)
		if code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("submit %d: status %d (%s)", i, code, res.Error)
		}
		ids[i] = res.ID
	}
	return collect(t, ts.URL, ids)
}

// collect polls every job until it is done and returns its artifacts keyed
// by canonical spec; a failed job fails the test.
func collect(t *testing.T, base string, ids []string) map[string]artifacts {
	t.Helper()
	out := map[string]artifacts{}
	deadline := time.Now().Add(120 * time.Second)
	for _, id := range ids {
		for {
			if time.Now().After(deadline) {
				t.Fatalf("job %s did not finish in time", id)
			}
			body := get(t, base+"/jobs/"+id, http.StatusOK)
			var res Result
			if err := json.Unmarshal(body, &res); err != nil {
				t.Fatalf("decode job %s: %v", id, err)
			}
			if res.State == StateFailed {
				t.Fatalf("job %s failed: %s", id, res.Error)
			}
			if res.State == StateDone {
				out[res.Spec] = artifacts{
					body:   body,
					report: get(t, base+"/jobs/"+id+"/report", http.StatusOK),
					trace:  get(t, base+"/jobs/"+id+"/trace", http.StatusOK),
				}
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	return out
}

func post(t *testing.T, base string, req Request) (Result, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/tune", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res Result
	data, _ := io.ReadAll(resp.Body)
	json.Unmarshal(data, &res)
	return res, resp.StatusCode
}

func get(t *testing.T, url string, wantCode int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: status %d, want %d (%s)", url, resp.StatusCode, wantCode, data)
	}
	return data
}

// TestServeDeterministicPerJob is the acceptance check: a job's terminal
// Result JSON, report and trace are byte-identical whether the job ran
// alone on a serial server or interleaved with 7 other jobs on a wide
// concurrent one, with the shared compile cache on or off. Run under
// -race in the tier-1 recipe.
func TestServeDeterministicPerJob(t *testing.T) {
	all := opt.AllFlags()
	reqs := make([]Request, 8)
	for i := range reqs {
		reqs[i] = subsetReq("BZIP2", all[3*i:3*i+3])
	}

	alone := runAll(t, Options{Workers: 1, Jobs: 1}, reqs[:1])
	shared := runAll(t, Options{Workers: 4, Jobs: 8}, reqs)
	private := runAll(t, Options{Workers: 2, Jobs: 4, NoSharedCache: true}, reqs)

	if len(shared) != len(reqs) || len(private) != len(reqs) {
		t.Fatalf("finished %d shared / %d private jobs, want %d", len(shared), len(private), len(reqs))
	}
	for spec, a := range alone {
		b, ok := shared[spec]
		if !ok {
			t.Fatalf("spec %s missing from the concurrent run", spec)
		}
		if !bytes.Equal(a.body, b.body) {
			t.Errorf("spec %s: result JSON differs alone vs concurrent:\n--- alone\n%s\n--- concurrent\n%s", spec, a.body, b.body)
		}
	}
	for spec, b := range shared {
		c, ok := private[spec]
		if !ok {
			t.Fatalf("spec %s missing from the private-cache run", spec)
		}
		if !bytes.Equal(b.body, c.body) {
			t.Errorf("spec %s: result JSON differs shared vs private cache", spec)
		}
		if !bytes.Equal(b.report, c.report) {
			t.Errorf("spec %s: report differs shared vs private cache", spec)
		}
		if !bytes.Equal(b.trace, c.trace) {
			t.Errorf("spec %s: trace differs shared vs private cache", spec)
		}
	}
}

// TestServeReportMirrorsEngine pins runJob to the CLI path: the job's
// report must equal cli.FormatTuneReport over a Tuner configured exactly
// as cmd/peak configures it (the full-tune byte-parity with cmd/peak is
// asserted by the tier-1 smoke check; this is the fast in-process twin).
func TestServeReportMirrorsEngine(t *testing.T) {
	flags := opt.AllFlags()[:4]
	req := subsetReq("BZIP2", flags)
	got := runAll(t, Options{Workers: 2, Jobs: 1}, []Request{req})

	b, _ := workloads.ByName("BZIP2")
	m := mustMachine(t, "sparc2")
	method, _ := core.ParseMethod("CBR")
	prof, err := profiling.Run(b, b.Train, m)
	if err != nil {
		t.Fatal(err)
	}
	tuner := &core.Tuner{
		Bench: b, Mach: m, Dataset: b.Train, Cfg: core.DefaultConfig(),
		Profile: prof, Force: &method, Candidates: flags, Pool: sched.NewSerial(),
	}
	res, err := tuner.Tune()
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := core.MeasurePerformanceStored(b, b.Ref, m, opt.O3(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tuned, _, err := core.MeasurePerformanceStored(b, b.Ref, m, res.Best, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := cli.FormatTuneReport(b, m, res, false, base, tuned)

	var spec string
	for s := range got {
		spec = s
	}
	if string(got[spec].report) != want {
		t.Errorf("serve report differs from the engine's:\n--- serve\n%s\n--- engine\n%s", got[spec].report, want)
	}
}

// TestServeAdmissionControl: with one job slot held at the gate and a
// queue of one, a third distinct job must be refused with 429 and a
// Retry-After header; resubmitting an already-known spec stays 200.
func TestServeAdmissionControl(t *testing.T) {
	all := opt.AllFlags()
	s := New(Options{Workers: 1, Jobs: 1, Queue: 1})
	s.gate = make(chan struct{})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain()
	defer close(s.gate)

	reqs := []Request{
		subsetReq("BZIP2", all[0:1]),
		subsetReq("BZIP2", all[1:2]),
		subsetReq("BZIP2", all[2:3]),
	}
	if _, code := post(t, ts.URL, reqs[0]); code != http.StatusAccepted {
		t.Fatalf("job 1: status %d, want 202", code)
	}
	// The slot is blocked at the gate; the first job may sit in the queue
	// or already be claimed by the slot. Fill whatever queue space remains
	// before asserting the refusal.
	refused := false
	for i, req := range reqs[1:] {
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/tune", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			refused = true
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without a Retry-After header")
			}
		default:
			t.Fatalf("job %d: status %d", i+2, resp.StatusCode)
		}
	}
	if !refused {
		t.Fatal("queue of 1 with a held slot admitted 3 distinct jobs")
	}
	// Idempotent resubmission of a known spec is 200, never 429.
	if _, code := post(t, ts.URL, reqs[0]); code != http.StatusOK {
		t.Fatalf("duplicate submit: status %d, want 200", code)
	}
}

// TestServeDuplicateSpec: requests that differ only in spelling (flag
// order, -f prefixes, duplicates) are one job.
func TestServeDuplicateSpec(t *testing.T) {
	all := opt.AllFlags()
	s := New(Options{Workers: 1, Jobs: 1})
	s.gate = make(chan struct{})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain()
	defer close(s.gate)

	a := subsetReq("BZIP2", []opt.Flag{all[2], all[5]})
	b := Request{Bench: "BZIP2", Machine: "sparc2", Method: "CBR",
		Flags: []string{"-f" + all[5].String(), all[2].String(), all[5].String()}}
	ra, codeA := post(t, ts.URL, a)
	rb, codeB := post(t, ts.URL, b)
	if codeA != http.StatusAccepted {
		t.Fatalf("first submit: status %d", codeA)
	}
	if codeB != http.StatusOK {
		t.Fatalf("respelled submit: status %d, want 200", codeB)
	}
	if ra.ID != rb.ID || ra.Spec != rb.Spec {
		t.Fatalf("respelled request got a different job: %s/%s vs %s/%s", ra.ID, ra.Spec, rb.ID, rb.Spec)
	}
	var listed []Result
	if err := json.Unmarshal(get(t, ts.URL+"/jobs", http.StatusOK), &listed); err != nil {
		t.Fatal(err)
	}
	if len(listed) != 1 {
		t.Fatalf("listed %d jobs, want 1", len(listed))
	}
}

// TestServeValidation: invalid requests are refused with 400 and a
// message naming the bad field.
func TestServeValidation(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		req  Request
		want string
	}{
		{"unknown bench", Request{Bench: "NOPE", Machine: "sparc2"}, "benchmark"},
		{"unknown machine", Request{Bench: "MGRID", Machine: "vax"}, "machine"},
		{"unknown method", Request{Bench: "MGRID", Machine: "sparc2", Method: "XXX"}, "method"},
		{"unknown dataset", Request{Bench: "MGRID", Machine: "sparc2", Dataset: "huge"}, "dataset"},
		{"ref without method", Request{Bench: "MGRID", Machine: "sparc2", Dataset: "ref"}, "forced method"},
		{"unknown noise", Request{Bench: "MGRID", Machine: "sparc2", Noise: "quiet"}, "noise"},
		{"unknown flag", Request{Bench: "MGRID", Machine: "sparc2", Flags: []string{"warp-speed"}}, "flag"},
	}
	for _, tc := range cases {
		res, code := post(t, ts.URL, tc.req)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
			continue
		}
		if !strings.Contains(res.Error, tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, res.Error, tc.want)
		}
	}
	// A garbage body is a 400, not a 500.
	resp, err := http.Post(ts.URL+"/tune", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: status %d, want 400", resp.StatusCode)
	}
}

// TestServeStatsFresh: a fresh server's /stats and /healthz must marshal
// cleanly — json.Marshal rejects NaN, so this is the regression test for
// the zero-lookup cache hit rate and zero-wall pool utilization.
func TestServeStatsFresh(t *testing.T) {
	s := New(Options{Workers: 2, Jobs: 3, Queue: 5, Journal: fault.NewMemoryJournal()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var st Stats
	if err := json.Unmarshal(get(t, ts.URL+"/stats", http.StatusOK), &st); err != nil {
		t.Fatalf("fresh /stats does not decode: %v", err)
	}
	if st.Cache == nil || st.Cache.HitRate != 0 {
		t.Errorf("fresh cache hit rate = %+v, want 0", st.Cache)
	}
	if st.Pool.Utilization != 0 {
		t.Errorf("fresh pool utilization = %v, want 0", st.Pool.Utilization)
	}
	if st.QueueCapacity != 5 || st.JobSlots != 3 {
		t.Errorf("queue/slots = %d/%d, want 5/3", st.QueueCapacity, st.JobSlots)
	}
	if st.JournalIDs == nil || *st.JournalIDs != 0 {
		t.Errorf("journal ids = %v, want 0", st.JournalIDs)
	}
	var hz map[string]any
	if err := json.Unmarshal(get(t, ts.URL+"/healthz", http.StatusOK), &hz); err != nil {
		t.Fatal(err)
	}
	if hz["status"] != "ok" || hz["draining"] != false {
		t.Errorf("healthz = %v", hz)
	}
}

// TestServeDrainAndResume: draining marks unstarted jobs interrupted
// (with the drain's interruption surfaced in the job snapshot), and a new
// server sharing the journal runs the resubmitted request to a result
// byte-identical to a never-interrupted run.
func TestServeDrainAndResume(t *testing.T) {
	journal := fault.NewMemoryJournal()
	req := subsetReq("BZIP2", opt.AllFlags()[:3])

	s := New(Options{Workers: 1, Jobs: 1, Journal: journal})
	s.gate = make(chan struct{})
	s.Start()
	res, code, err := s.Submit(req)
	if err != nil || code != 202 {
		t.Fatalf("submit: %d %v", code, err)
	}
	drained := make(chan []Result)
	go func() { drained <- s.Drain() }()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	close(s.gate) // release the slot into the draining server
	interrupted := <-drained
	if len(interrupted) != 1 || interrupted[0].ID != res.ID {
		t.Fatalf("drain returned %+v, want the one queued job", interrupted)
	}
	if got, _ := s.Job(res.ID); got.State != StateInterrupted {
		t.Fatalf("job state after drain = %s, want %s", got.State, StateInterrupted)
	}
	// A draining server refuses new work.
	if _, code, _ := s.Submit(subsetReq("BZIP2", opt.AllFlags()[4:5])); code != 503 {
		t.Fatalf("submit while draining: status %d, want 503", code)
	}

	// "Restart": a fresh server holding the same journal; resubmitting the
	// canonical request resumes (here: runs) the job.
	resumed := runAll(t, Options{Workers: 1, Jobs: 1, Journal: journal}, []Request{req})
	clean := runAll(t, Options{Workers: 2, Jobs: 1}, []Request{req})
	for spec, r := range resumed {
		c, ok := clean[spec]
		if !ok {
			t.Fatalf("spec %s missing from clean run", spec)
		}
		if !bytes.Equal(r.body, c.body) {
			t.Errorf("resumed result differs from a clean run:\n--- resumed\n%s\n--- clean\n%s", r.body, c.body)
		}
	}
}

// TestServeTraceIsolation: two concurrent jobs' traces both start at
// seq 1 and mention only their own tune — per-job buffers, not a shared
// stream.
func TestServeTraceIsolation(t *testing.T) {
	all := opt.AllFlags()
	reqs := []Request{subsetReq("BZIP2", all[0:2]), subsetReq("BZIP2", all[2:4])}
	got := runAll(t, Options{Workers: 2, Jobs: 2}, reqs)
	if len(got) != 2 {
		t.Fatalf("finished %d jobs, want 2", len(got))
	}
	for spec, a := range got {
		first := bytes.SplitN(a.trace, []byte("\n"), 2)[0]
		if !bytes.Contains(first, []byte(`"seq":1,`)) {
			t.Errorf("spec %s: trace does not start at seq 1: %s", spec, first)
		}
	}
}

func mustMachine(t *testing.T, name string) *machine.Machine {
	t.Helper()
	m, ok := machine.ByName(name)
	if !ok {
		t.Fatalf("unknown machine %q", name)
	}
	return m
}
