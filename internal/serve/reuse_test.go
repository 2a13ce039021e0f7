package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"peak/internal/opt"
)

// TestOnceTableSingleFlight: concurrent callers of one key share a single
// run — the ones arriving while it is in flight wait for it and count as
// hits — and a nil table runs every call.
func TestOnceTableSingleFlight(t *testing.T) {
	tab := newOnceTable[int]()
	release := make(chan struct{})
	var calls atomic.Int64
	f := func() (int, error) {
		calls.Add(1)
		<-release
		return 42, nil
	}
	const callers = 8
	var wg sync.WaitGroup
	got := make([]int, callers)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = tab.do("k", f)
		}()
	}
	// Wait until every caller has claimed or joined the key.
	for tab.runs.Load()+tab.hits.Load() < callers {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	for i, v := range got {
		if v != 42 {
			t.Errorf("caller %d got %d, want 42", i, v)
		}
	}
	if st := tab.stats(); calls.Load() != 1 || st.Runs != 1 || st.Hits != callers-1 {
		t.Errorf("f ran %d times, stats %+v; want 1 run, %d hits", calls.Load(), *st, callers-1)
	}

	var nilTab *onceTable[int]
	for i := 0; i < 3; i++ {
		nilTab.do("k", f)
	}
	if calls.Load() != 4 || nilTab.stats() != nil {
		t.Errorf("nil table: f ran %d times in total, want 4; stats %+v", calls.Load(), nilTab.stats())
	}
}

// TestServeReusesProfilesAndMeasurements is the acceptance check of the
// single-flight tables: eight flag-subset jobs of one (bench, machine) pair
// and both noise variants of a full tune on a second pair, released at
// once, profile once per pair and measure once per distinct
// bench/machine/flags key — and every job's result, report, metrics and
// trace is byte-identical to a NoSharedCache server's, where every job
// profiles and measures privately. Run under -race in the tier-1 recipe.
func TestServeReusesProfilesAndMeasurements(t *testing.T) {
	all := opt.AllFlags()
	var reqs []Request
	for i := 0; i < 8; i++ {
		names := []string{all[3*i].String(), all[3*i+1].String(), all[3*i+2].String()}
		reqs = append(reqs, Request{Bench: "GZIP", Machine: "sparc2", Flags: names})
	}
	reqs = append(reqs,
		Request{Bench: "GZIP", Machine: "p4"},
		Request{Bench: "GZIP", Machine: "p4", Noise: "gauss4x"})

	opts := Options{Workers: 2, Jobs: len(reqs), Queue: len(reqs)}
	shared, st := runHeld(t, opts, reqs)
	opts.NoSharedCache = true
	private, pst := runHeld(t, opts, reqs)

	if len(shared) != len(reqs) || len(private) != len(reqs) {
		t.Fatalf("finished %d shared / %d private jobs, want %d", len(shared), len(private), len(reqs))
	}
	measureKeys := map[string]bool{}
	for spec, a := range shared {
		p, ok := private[spec]
		if !ok {
			t.Fatalf("spec %s missing from the NoSharedCache run", spec)
		}
		if !bytes.Equal(a.body, p.body) {
			t.Errorf("spec %s: result JSON (report, metrics) differs with reuse:\n--- reuse\n%s\n--- private\n%s", spec, a.body, p.body)
		}
		if !bytes.Equal(a.trace, p.trace) {
			t.Errorf("spec %s: trace differs with reuse", spec)
		}
		var res Result
		if err := json.Unmarshal(a.body, &res); err != nil {
			t.Fatal(err)
		}
		pair := strings.Join(strings.SplitN(spec, "/", 3)[:2], "/")
		measureKeys[pair+"/"+opt.O3().String()] = true
		measureKeys[pair+"/"+res.Result.Best.String()] = true
	}

	jobs := int64(len(reqs))
	if got := st.Profiles; got == nil || got.Runs != 2 || got.Hits != jobs-2 {
		t.Errorf("profiles = %+v, want 2 runs (one per pair) and %d hits", got, jobs-2)
	}
	runs := int64(len(measureKeys))
	if got := st.Measurements; got == nil || got.Runs != runs || got.Hits != 2*jobs-runs {
		t.Errorf("measurements = %+v, want %d runs (one per distinct key) and %d hits", got, runs, 2*jobs-runs)
	}
	if pst.Profiles != nil || pst.Measurements != nil {
		t.Errorf("NoSharedCache /stats has reuse blocks: %+v %+v", pst.Profiles, pst.Measurements)
	}
}

// runHeld is runAll with every job released at once: the slots wait at the
// gate until the last request is admitted, so jobs needing the same profile
// or measurement really do arrive together. It also returns the server's
// /stats once every job has finished.
func runHeld(t *testing.T, opts Options, reqs []Request) (map[string]artifacts, Stats) {
	t.Helper()
	s := New(opts)
	s.gate = make(chan struct{})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain()

	ids := make([]string, len(reqs))
	for i, req := range reqs {
		res, code := post(t, ts.URL, req)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d (%s)", i, code, res.Error)
		}
		ids[i] = res.ID
	}
	close(s.gate)
	arts := collect(t, ts.URL, ids)
	var st Stats
	if err := json.Unmarshal(get(t, ts.URL+"/stats", http.StatusOK), &st); err != nil {
		t.Fatalf("decode /stats: %v", err)
	}
	return arts, st
}

// TestServeLoneJobBorrowsIdleLane: on a -workers 1 -jobs 2 server a job
// running alone holds one lane and its rating Maps borrow the idle slot's,
// so the pool starts helpers — yet its result, report, metrics and trace
// are byte-identical to the same job on a NoSharedCache server and on a
// -jobs 1 server, whose serial pool has no helpers at all.
func TestServeLoneJobBorrowsIdleLane(t *testing.T) {
	req := subsetReq("BZIP2", opt.AllFlags()[:4])
	lent, st := runHeld(t, Options{Workers: 1, Jobs: 2}, []Request{req})
	private, _ := runHeld(t, Options{Workers: 1, Jobs: 2, NoSharedCache: true}, []Request{req})
	serial, sst := runHeld(t, Options{Workers: 1, Jobs: 1}, []Request{req})

	if st.Pool.Workers != 1 || st.Pool.Lanes != 2 {
		t.Errorf("pool workers/lanes = %d/%d, want 1/2", st.Pool.Workers, st.Pool.Lanes)
	}
	if st.Pool.Helpers < 1 {
		t.Errorf("lone job started %d helpers, want at least 1", st.Pool.Helpers)
	}
	if sst.Pool.Lanes != 1 || sst.Pool.Helpers != 0 {
		t.Errorf("-jobs 1 pool lanes/helpers = %d/%d, want 1/0", sst.Pool.Lanes, sst.Pool.Helpers)
	}
	if len(lent) != 1 || len(private) != 1 || len(serial) != 1 {
		t.Fatalf("finished %d/%d/%d jobs, want 1 each", len(lent), len(private), len(serial))
	}
	for spec, a := range lent {
		for name, other := range map[string]map[string]artifacts{"NoSharedCache": private, "-jobs 1": serial} {
			b, ok := other[spec]
			if !ok {
				t.Fatalf("spec %s missing from the %s run", spec, name)
			}
			if !bytes.Equal(a.body, b.body) {
				t.Errorf("%s: result JSON (report, metrics) differs from the %s run:\n--- lanes\n%s\n--- %s\n%s", spec, name, a.body, name, b.body)
			}
			if !bytes.Equal(a.report, b.report) {
				t.Errorf("%s: report differs from the %s run", spec, name)
			}
			if !bytes.Equal(a.trace, b.trace) {
				t.Errorf("%s: trace differs from the %s run", spec, name)
			}
		}
	}
}
