package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"peak/internal/opt"
	"peak/internal/profiling"
	"peak/internal/store"
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

// TestOnceTablePrefetch: a prefetch runs its key at most once, returns at
// once when the key is already started instead of waiting, and counts in
// neither total — the key's first do counts the run, later ones hits,
// exactly as without the prefetch.
func TestOnceTablePrefetch(t *testing.T) {
	tab := newOnceTable[int]()
	release := make(chan struct{})
	var calls atomic.Int64
	f := func() (int, error) {
		calls.Add(1)
		<-release
		return 7, nil
	}
	prefetched := make(chan struct{})
	go func() {
		tab.prefetch("k", f)
		close(prefetched)
	}()
	for calls.Load() == 0 {
		runtime.Gosched()
	}
	returned := make(chan struct{})
	go func() {
		tab.prefetch("k", f)
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("prefetch of an in-flight key waited for its run")
	}
	if st := tab.stats(); st.Runs != 0 || st.Hits != 0 {
		t.Errorf("prefetches counted in /stats: %+v", *st)
	}
	close(release)
	<-prefetched
	for i := 0; i < 3; i++ {
		if v, err := tab.do("k", f); v != 7 || err != nil {
			t.Fatalf("do = %d, %v; want 7", v, err)
		}
	}
	if st := tab.stats(); calls.Load() != 1 || st.Runs != 1 || st.Hits != 2 {
		t.Errorf("f ran %d times, stats %+v; want 1 call, 1 run, 2 hits", calls.Load(), *st)
	}
	var nilTab *onceTable[int]
	nilTab.prefetch("k", f)
}

// TestServeTwinPairOverlapsStages: two jobs of one (bench, machine) pair
// share the profile run and the -O3 measurement. On a 2-lane server each
// job starts both stages at once and skips whichever its twin is running;
// every job's result, report, metrics and trace stay byte-identical to a
// 1-lane server, where the stages run one after another, and /stats counts
// the shared stages as before.
func TestServeTwinPairOverlapsStages(t *testing.T) {
	all := opt.AllFlags()
	reqs := []Request{
		{Bench: "GZIP", Machine: "sparc2", Flags: []string{all[0].String(), all[1].String(), all[2].String()}},
		{Bench: "GZIP", Machine: "sparc2", Flags: []string{all[3].String(), all[4].String(), all[5].String()}},
	}
	serial := runAll(t, Options{Workers: 1, Jobs: 1}, reqs)
	twin, st := runHeld(t, Options{Workers: 2, Jobs: 2, Queue: 2}, reqs)
	if len(serial) != len(reqs) || len(twin) != len(reqs) {
		t.Fatalf("finished %d serial / %d twin jobs, want %d", len(serial), len(twin), len(reqs))
	}
	measureKeys := map[string]bool{}
	for spec, a := range serial {
		b, ok := twin[spec]
		if !ok {
			t.Fatalf("spec %s missing from the 2-lane run", spec)
		}
		if !bytes.Equal(a.body, b.body) || !bytes.Equal(a.report, b.report) || !bytes.Equal(a.trace, b.trace) {
			t.Errorf("spec %s: result, report or trace differs on 2 lanes:\n--- 1 lane\n%s\n--- 2 lanes\n%s", spec, a.body, b.body)
		}
		var res Result
		if err := json.Unmarshal(b.body, &res); err != nil {
			t.Fatal(err)
		}
		measureKeys[opt.O3().String()] = true
		measureKeys[res.Result.Best.String()] = true
	}
	if got := st.Profiles; got == nil || got.Runs != 1 || got.Hits != 1 {
		t.Errorf("profiles = %+v, want 1 run and 1 hit", got)
	}
	runs := int64(len(measureKeys))
	if got := st.Measurements; got == nil || got.Runs != runs || got.Hits != 4-runs {
		t.Errorf("measurements = %+v, want %d runs and %d hits", got, runs, 4-runs)
	}
}

// TestServeReusesProfilesAndMeasurements is the acceptance check of the
// single-flight tables: eight flag-subset jobs of one (bench, machine) pair
// and both noise variants of a full tune on a second pair, released at
// once, profile once per pair and measure once per distinct
// bench/machine/flags key — and every job's result, report, metrics and
// trace is byte-identical to a NoSharedCache server's, where every job
// profiles and measures privately. A third server, on an empty store,
// counts the same reuse, returns the same results and reports, and
// leaves one profile record per pair in the store (the warm path is
// TestServeWarmRestartReusesProfiles). Run under -race in the tier-1
// recipe.
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
	// The same server on an empty store: its profile table's runs read
	// through the store's profile memo and record one profile per pair.
	dir := t.TempDir()
	cold, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts.Store = cold
	stored, sst := runHeld(t, opts, reqs)
	opts.Store = nil
	opts.NoSharedCache = true
	private, pst := runHeld(t, opts, reqs)

	if len(shared) != len(reqs) || len(private) != len(reqs) || len(stored) != len(reqs) {
		t.Fatalf("finished %d shared / %d stored / %d private jobs, want %d", len(shared), len(stored), len(private), len(reqs))
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
		// A store-attached trace tags events with their serving tier, so
		// only the result and report are compared.
		if s := stored[spec]; !bytes.Equal(a.body, s.body) || !bytes.Equal(a.report, s.report) {
			t.Errorf("spec %s: result or report differs with a store attached", spec)
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
	if *sst.Profiles != *st.Profiles {
		t.Errorf("profiles with a store = %+v, want %+v as without", *sst.Profiles, *st.Profiles)
	}
	reopened, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var profiles []string
	reopened.MemoEach(string(profiling.MemoKind), func(key string, _ []byte) { profiles = append(profiles, key) })
	if want := []string{"v1/GZIP/train/p4", "v1/GZIP/train/sparc2"}; !slices.Equal(profiles, want) {
		t.Errorf("stored profiles = %v, want one per pair %v", profiles, want)
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

// TestServeLoneJobGainsLateHelper: on a -workers 1 -jobs 2 server a job's
// rounds start without helpers while the other slot's lane is held, as it
// is while a neighbouring job runs. When that hold ends in the middle of
// a round, the freed lane joins the round at once instead of idling until
// the next one (pool.late_helpers). The test holds the lane itself, the
// way dispatch does around a job, and ends the hold in the middle of a
// round. The job's result, report and trace are byte-identical to the
// same job on a -jobs 1 (serial) server.
func TestServeLoneJobGainsLateHelper(t *testing.T) {
	req := Request{Bench: "EQUAKE", Machine: "sparc2", Method: "CBR"}
	s := New(Options{Workers: 1, Jobs: 2})
	neighbour := s.pool.Hold()
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain()

	res, code := post(t, ts.URL, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (%s)", code, res.Error)
	}
	// End the hold while a round runs on the job's own goroutine alone
	// and has ratings no goroutine has taken yet; if the job takes them
	// first, hold again and retry.
	ps := s.pool.Stats()
	for ps.LateHelpers.Load() == 0 {
		if j, ok := s.Job(res.ID); !ok || terminalState(j.State) {
			break
		}
		running := ps.JobsRunning.Load()
		if running != 1 || ps.JobsQueued.Load()-ps.JobsDone.Load()-running < 1 {
			time.Sleep(50 * time.Microsecond)
			continue
		}
		neighbour()
		if ps.LateHelpers.Load() > 0 {
			neighbour = func() {}
			break
		}
		neighbour = s.pool.Hold()
	}
	neighbour()
	lent := collect(t, ts.URL, []string{res.ID})
	var st Stats
	if err := json.Unmarshal(get(t, ts.URL+"/stats", http.StatusOK), &st); err != nil {
		t.Fatalf("decode /stats: %v", err)
	}
	if st.Pool.LateHelpers < 1 || st.Pool.Helpers < st.Pool.LateHelpers {
		t.Errorf("pool helpers/late_helpers = %d/%d, want at least one late helper, counted among the helpers",
			st.Pool.Helpers, st.Pool.LateHelpers)
	}

	serial, sst := runHeld(t, Options{Workers: 1, Jobs: 1}, []Request{req})
	if sst.Pool.Helpers != 0 || sst.Pool.LateHelpers != 0 {
		t.Errorf("-jobs 1 pool helpers/late_helpers = %d/%d, want 0/0", sst.Pool.Helpers, sst.Pool.LateHelpers)
	}
	for spec, a := range lent {
		b, ok := serial[spec]
		if !ok {
			t.Fatalf("spec %s missing from the -jobs 1 run", spec)
		}
		if !bytes.Equal(a.body, b.body) {
			t.Errorf("%s: result JSON differs from the -jobs 1 run:\n--- late helper\n%s\n--- -jobs 1\n%s", spec, a.body, b.body)
		}
		if !bytes.Equal(a.report, b.report) {
			t.Errorf("%s: report differs from the -jobs 1 run", spec)
		}
		if !bytes.Equal(a.trace, b.trace) {
			t.Errorf("%s: trace differs from the -jobs 1 run", spec)
		}
	}
	if len(lent) != 1 {
		t.Fatalf("finished %d jobs, want 1", len(lent))
	}
}
