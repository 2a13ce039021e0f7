package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"peak/internal/opt"
	"peak/internal/store"
)

// storeOpts is the test server configuration for the warm-start tests: a
// small concurrent server with the given persistent store attached.
func storeOpts(st *store.Store) Options {
	return Options{Workers: 2, Jobs: 2, Store: st}
}

// TestServeWarmRestartByteIdentical is the serve-level acceptance check of
// the warm-start tentpole: a job run cold against an empty store, flushed
// at drain, must be re-served byte-identically by a fresh server booted
// from the same store directory — body, report and trace — without running
// a single simulation (the pool's cycle ledger stays zero and /stats
// reports the job as restored). The list mixes flag-subset specs with the
// consultant-path spec peak-serve -smoke runs (no method, no flags).
func TestServeWarmRestartByteIdentical(t *testing.T) {
	dir := t.TempDir()
	reqs := []Request{
		subsetReq("MGRID", opt.AllFlags()[:3]),
		subsetReq("SWIM", opt.AllFlags()[3:6]),
		{Bench: "MGRID", Machine: "sparc2"},
	}

	cold, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// runAll drains its server on return, which flushes the store.
	coldArts := runAll(t, storeOpts(cold), reqs)
	if st := cold.Stats(); st.Flushes != 1 || st.Pending == 0 {
		t.Fatalf("cold drain did not flush the store: %+v", st)
	}

	warm, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(storeOpts(warm))
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain()

	for _, req := range reqs {
		res, code := post(t, ts.URL, req)
		if code != 200 {
			t.Fatalf("warm submit returned %d, want 200 (already done)", code)
		}
		if res.State != StateDone {
			t.Fatalf("warm job %s is %q, want done without running", res.ID, res.State)
		}
		want, ok := coldArts[res.Spec]
		if !ok {
			t.Fatalf("warm job spec %q unknown to the cold run", res.Spec)
		}
		body := get(t, ts.URL+"/jobs/"+res.ID, 200)
		if !bytes.Equal(body, want.body) {
			t.Errorf("job %s: restored body differs from cold run:\ncold %s\nwarm %s", res.ID, want.body, body)
		}
		report := get(t, ts.URL+"/jobs/"+res.ID+"/report", 200)
		if !bytes.Equal(report, want.report) {
			t.Errorf("job %s: restored report differs from cold run", res.ID)
		}
		tr := get(t, ts.URL+"/jobs/"+res.ID+"/trace", 200)
		if !bytes.Equal(tr, want.trace) {
			t.Errorf("job %s: restored trace differs from cold run", res.ID)
		}
	}

	st := s.Stats()
	if st.Store == nil || st.Memo == nil {
		t.Fatal("/stats has no store/memo blocks despite an attached store")
	}
	if st.Store.RestoredJobs != int64(len(reqs)) {
		t.Errorf("restored_jobs = %d, want %d", st.Store.RestoredJobs, len(reqs))
	}
	if st.Pool.Cycles != 0 {
		t.Errorf("warm server simulated %d cycles re-serving restored jobs, want 0", st.Pool.Cycles)
	}
}

// TestServeWarmRestartReusesProfiles covers the profile memo on three
// paths: a server with no store, one on an empty store and one restarted
// on that store. The restarted server gets a new refinement of the stored
// pair and must tune it without simulating the profile run, while its
// single-flight table still counts the run, and every job's result and
// report must match the storeless server's byte for byte.
func TestServeWarmRestartReusesProfiles(t *testing.T) {
	dir := t.TempDir()
	stored := subsetReq("SWIM", opt.AllFlags()[:3])
	refined := subsetReq("SWIM", opt.AllFlags()[3:6])
	plain, plainSrv := runServer(t, Options{Workers: 2, Jobs: 2}, []Request{stored, refined})
	if n := plainSrv.profileSims.Load(); n != 1 {
		t.Errorf("storeless server simulated %d profile runs, want 1", n)
	}

	cold, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	coldArts, coldSrv := runServer(t, storeOpts(cold), []Request{stored})
	if n := coldSrv.profileSims.Load(); n != 1 {
		t.Errorf("cold server simulated %d profile runs, want 1", n)
	}

	warm, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warmArts, warmSrv := runServer(t, storeOpts(warm), []Request{stored, refined})
	if n := warmSrv.profileSims.Load(); n != 0 {
		t.Errorf("restarted server simulated %d profile runs, want 0 (the store holds the profile)", n)
	}
	if p := warmSrv.Stats().Profiles; p == nil || p.Runs != 1 || p.Hits != 0 {
		t.Errorf("restarted server profiles = %+v, want 1 run and 0 hits", p)
	}

	// Traces differ by design: a store-attached tune tags its cache and
	// rate events with the tier that answered them.
	for _, leg := range []struct {
		name string
		arts map[string]artifacts
	}{{"cold", coldArts}, {"warm", warmArts}} {
		for spec, got := range leg.arts {
			want := plain[spec]
			if !bytes.Equal(got.body, want.body) || !bytes.Equal(got.report, want.report) {
				t.Errorf("%s job %s: body or report differs from the storeless server's", leg.name, spec)
			}
		}
	}
	if len(warmArts) != 2 {
		t.Errorf("restarted server finished %d jobs, want 2", len(warmArts))
	}
}

// TestServeWarmTuneUsesMemo covers the second warm path: a spec the store
// has rating memos for but no finished-job artifact (its artifact key is
// different) still tunes byte-identically, answering its ratings from the
// memo table instead of the simulator.
func TestServeWarmTuneUsesMemo(t *testing.T) {
	dir := t.TempDir()
	req := subsetReq("MGRID", opt.AllFlags()[:3])

	cold, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	coldArts := runAll(t, storeOpts(cold), []Request{req})

	warm, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(storeOpts(warm))
	// Forget the restored job so the submission truly re-runs the tune.
	s.mu.Lock()
	for id := range s.jobs {
		delete(s.jobs, id)
	}
	s.mu.Unlock()
	s.restoredJobs.Store(0)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain()

	res, code := post(t, ts.URL, req)
	if code != 202 {
		t.Fatalf("warm submit returned %d, want 202 (job map was cleared)", code)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("warm job did not finish in time")
		}
		body := get(t, ts.URL+"/jobs/"+res.ID, 200)
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		if res.State == StateDone {
			break
		}
		if res.State == StateFailed {
			t.Fatalf("warm job failed: %s", res.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}

	want := coldArts[res.Spec]
	report := get(t, ts.URL+"/jobs/"+res.ID+"/report", 200)
	if !bytes.Equal(report, want.report) {
		t.Error("memo-warm report differs from cold run")
	}
	st := s.Stats()
	if st.Memo == nil || st.Memo.Hits == 0 {
		t.Fatalf("memo-warm tune hit no memo records: %+v", st.Memo)
	}
	if st.Cache == nil || st.Cache.DiskHits == 0 {
		t.Fatalf("memo-warm tune took no disk-tier cache hits: %+v", st.Cache)
	}
}

// TestStatsStoreMemoBlocks pins the /stats schema around the warm-start
// store: without a store the "store" and "memo" blocks (and the cache's
// disk-tier figures) are absent, keeping the payload byte-compatible with
// pre-store servers; with a store both blocks appear with their counters.
func TestStatsStoreMemoBlocks(t *testing.T) {
	plain := New(Options{Workers: 1})
	data, err := json.MarshalIndent(plain.Stats(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for _, forbidden := range []string{`"store"`, `"memo"`, `"disk_hits"`, `"preloaded"`} {
		if strings.Contains(string(data), forbidden) {
			t.Errorf("storeless /stats contains %s:\n%s", forbidden, data)
		}
	}

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New(storeOpts(st))
	data, err = json.MarshalIndent(s.Stats(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"store"`, `"memo"`, `"versions"`, `"entries"`, `"restored_jobs"`,
		`"flushes"`, `"flushed_bytes"`, `"recovery"`, `"records"`,
		`"pending"`, `"hits"`, `"misses"`,
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("store-attached /stats is missing %s:\n%s", want, data)
		}
	}
}
