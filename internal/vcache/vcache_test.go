package vcache

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"peak/internal/machine"
	"peak/internal/opt"
	"peak/internal/sim"
	"peak/internal/workloads"
)

func compileBench(t *testing.T, name string) (key func(fs opt.FlagSet) Key, compile func(fs opt.FlagSet) func() (*sim.Version, error)) {
	t.Helper()
	b, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("benchmark %s not found", name)
	}
	m := machine.SPARCII()
	pk := ProgramKey(b.Prog)
	key = func(fs opt.FlagSet) Key {
		return Key{Prog: pk, Fn: b.TSName, Flags: fs, Machine: m.Name}
	}
	compile = func(fs opt.FlagSet) func() (*sim.Version, error) {
		return func() (*sim.Version, error) {
			return opt.Compile(b.Prog, b.TS, fs, m)
		}
	}
	return key, compile
}

func TestResolveHitReturnsSameVersion(t *testing.T) {
	key, compile := compileBench(t, "SWIM")
	c := New()
	r1, err := c.Resolve(key(opt.O3()), compile(opt.O3()))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Resolve(key(opt.O3()), compile(opt.O3()))
	if err != nil {
		t.Fatal(err)
	}
	if r1.V != r2.V || r1.FP != r2.FP {
		t.Fatalf("cache hit returned a different version (%p vs %p) or fingerprint (%s vs %s)", r1.V, r2.V, r1.FP, r2.FP)
	}
	st := c.Stats()
	if st.Lookups != 2 || st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 2 lookups / 1 hit / 1 miss / 1 entry", st)
	}
	if st.Bytes <= 0 {
		t.Fatalf("expected positive byte estimate, got %d", st.Bytes)
	}
}

func TestContentDedupSharesIdenticalCode(t *testing.T) {
	key, compile := compileBench(t, "SWIM")
	c := New()
	base := opt.O3()
	br, err := c.Resolve(key(base), compile(base))
	if err != nil {
		t.Fatal(err)
	}
	bv := br.V
	seen := map[uint64]*sim.Version{br.FP.Lo: bv}
	sharedFlags := 0
	for _, f := range opt.AllFlags() {
		fs := base.Without(f)
		r, err := c.Resolve(key(fs), compile(fs))
		if err != nil {
			t.Fatal(err)
		}
		v, fp, shared := r.V, r.FP.Lo, r.Shared
		if prev, ok := seen[fp]; ok {
			if !shared {
				t.Fatalf("flag %s: fingerprint seen before but shared=false", f)
			}
			if v != prev {
				t.Fatalf("flag %s: identical fingerprint but distinct version pointer", f)
			}
			sharedFlags++
		} else {
			if v == bv {
				t.Fatalf("flag %s: distinct fingerprint but aliased to base version", f)
			}
			seen[fp] = v
		}
	}
	st := c.Stats()
	if int(st.Shared) != sharedFlags {
		t.Fatalf("stats.Shared = %d, want %d", st.Shared, sharedFlags)
	}
	if sharedFlags == 0 {
		t.Fatal("expected at least one flag to be a code no-op on SWIM")
	}
	if st.Versions >= st.Entries {
		t.Fatalf("expected fewer versions (%d) than entries (%d)", st.Versions, st.Entries)
	}
}

func TestProgramKeyStableAcrossCloneAndSensitiveToEdits(t *testing.T) {
	b, _ := workloads.ByName("MCF")
	k1 := ProgramKey(b.Prog)
	if k2 := ProgramKey(b.Prog.Clone()); k1 != k2 {
		t.Fatalf("clone changed program key: %x vs %x", k1, k2)
	}
	mutated := b.Prog.Clone()
	mutated.AddScalar("__vcache_probe", 0)
	if k3 := ProgramKey(mutated); k3 == k1 {
		t.Fatal("adding a scalar did not change the program key")
	}
}

func TestConcurrentResolve(t *testing.T) {
	key, compile := compileBench(t, "SWIM")
	c := New()
	flags := []opt.FlagSet{opt.O3()}
	for _, f := range opt.AllFlags()[:8] {
		flags = append(flags, opt.O3().Without(f))
	}
	const goroutines = 8
	got := make([][]*sim.Version, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make([]*sim.Version, len(flags))
			for i, fs := range flags {
				r, err := c.Resolve(key(fs), compile(fs))
				if err != nil {
					t.Error(err)
					return
				}
				got[g][i] = r.V
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range flags {
			if got[g][i] != got[0][i] {
				t.Fatalf("goroutine %d got a different version for flags[%d]", g, i)
			}
		}
	}
	st := c.Stats()
	if st.Misses != int64(len(flags)) {
		t.Fatalf("misses = %d, want %d (one compile per distinct key)", st.Misses, len(flags))
	}
	if st.Lookups != int64(goroutines*len(flags)) {
		t.Fatalf("lookups = %d, want %d", st.Lookups, goroutines*len(flags))
	}
}

func TestMarkQuarantined(t *testing.T) {
	key, compile := compileBench(t, "SWIM")
	c := New()
	k := key(opt.O3())
	c.MarkQuarantined(k) // unknown key: no-op
	if c.Stats().Quarantined != 0 {
		t.Fatal("marking an unknown key changed stats")
	}
	if _, err := c.Resolve(k, compile(opt.O3())); err != nil {
		t.Fatal(err)
	}
	c.MarkQuarantined(k)
	c.MarkQuarantined(k) // idempotent
	if got := c.Stats().Quarantined; got != 1 {
		t.Errorf("Stats.Quarantined = %d, want 1", got)
	}
	// The entry is still served: tunes re-verify their own resolutions.
	if r, err := c.Resolve(k, compile(opt.O3())); err != nil || r.V == nil {
		t.Errorf("quarantined entry not served: %v, %v", r.V, err)
	}
}

// TestProgramKeyValueFrozen pins the exact 64-bit ProgramKey values for two
// workloads. These are not arbitrary: ProgramKey is embedded in the
// fault-injection identity strings ("progKey/fn/flags/machine"), so any
// change to the legacy 64-bit FNV-1a lane silently re-rolls every committed
// fault draw (results_faults.txt and the quarantine-storm resilience test).
func TestProgramKeyValueFrozen(t *testing.T) {
	for name, want := range map[string]uint64{
		"SWIM":  0x875c2d27974d18c6,
		"MGRID": 0x42f927cccd34de9a,
	} {
		b, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("benchmark %s not found", name)
		}
		if got := ProgramKey(b.Prog); got != want {
			t.Errorf("ProgramKey(%s) = %#x, want %#x — the legacy 64-bit hash lane changed; this breaks fault-injection determinism", name, got, want)
		}
	}
}

// TestExportPreloadRoundTrip drives the warm-start path end to end in
// memory: a populated cache is exported, preloaded into a fresh cache, and
// every original key must resolve there as a disk hit without compiling
// anything. Quarantined keys must not survive the round trip.
func TestExportPreloadRoundTrip(t *testing.T) {
	key, compile := compileBench(t, "SWIM")
	warm := New()
	flags := []opt.FlagSet{opt.O3()}
	for _, f := range opt.AllFlags()[:6] {
		flags = append(flags, opt.O3().Without(f))
	}
	want := make(map[opt.FlagSet]Resolution)
	for _, fs := range flags {
		r, err := warm.Resolve(key(fs), compile(fs))
		if err != nil {
			t.Fatal(err)
		}
		want[fs] = r
	}
	bad := key(flags[len(flags)-1])
	warm.MarkQuarantined(bad)

	sn := warm.Export()
	if len(sn.Entries) != len(flags)-1 {
		t.Fatalf("exported %d entries, want %d (quarantined key excluded)", len(sn.Entries), len(flags)-1)
	}
	for _, se := range sn.Entries {
		if se.Key == bad {
			t.Fatal("quarantined key leaked into the snapshot")
		}
		if se.FP.IsZero() {
			t.Fatalf("entry %+v exported with zero fingerprint", se.Key)
		}
	}

	cold := New()
	if n := cold.Preload(sn); n != len(sn.Entries) {
		t.Fatalf("Preload installed %d keys, want %d", n, len(sn.Entries))
	}
	if st := cold.Stats(); st.Lookups != 0 || st.Misses != 0 || st.Preloaded != int64(len(sn.Entries)) {
		t.Fatalf("post-preload stats = %+v, want 0 lookups / 0 misses / %d preloaded", st, len(sn.Entries))
	}
	for _, fs := range flags[:len(flags)-1] {
		r, err := cold.Resolve(key(fs), func() (*sim.Version, error) {
			t.Fatalf("flags %v recompiled despite preload", fs)
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !r.FromDisk {
			t.Errorf("flags %v: preloaded key resolved with FromDisk=false", fs)
		}
		if r.FP != want[fs].FP || r.Shared != want[fs].Shared || r.V != want[fs].V {
			t.Errorf("flags %v: round trip changed resolution: got {fp %s shared %v}, want {fp %s shared %v}", fs, r.FP, r.Shared, want[fs].FP, want[fs].Shared)
		}
	}
	st := cold.Stats()
	if st.DiskHits != int64(len(flags)-1) {
		t.Errorf("DiskHits = %d, want %d", st.DiskHits, len(flags)-1)
	}
	// Preloading again is a no-op on resident keys.
	if n := cold.Preload(sn); n != 0 {
		t.Errorf("second Preload installed %d keys, want 0", n)
	}
	// Preload takes each body's size from the snapshot; it must be the
	// canonical encoding's length, once per distinct body.
	var bytes int64
	counted := make(map[FP128]bool)
	for _, se := range sn.Entries {
		if !counted[se.FP] {
			counted[se.FP] = true
			var e Encoder
			e.Version(sn.Versions[se.FP])
			bytes += int64(len(e.Buf))
		}
	}
	if st := cold.Stats(); st.Bytes != bytes {
		t.Errorf("preloaded Bytes = %d, want %d", st.Bytes, bytes)
	}
}

// TestStatsConsistentUnderRace is the audit of Stats() snapshotting: with
// resolvers and prefetchers racing readers, every Stats
// snapshot must be internally consistent — Lookups == Hits+Misses and
// Entries >= Versions at all times — because the snapshot is taken under
// the same mutex every writer holds. Run under -race this also proves the
// counters are never written outside the lock.
func TestStatsConsistentUnderRace(t *testing.T) {
	key, compile := compileBench(t, "SWIM")
	c := New()
	flags := []opt.FlagSet{opt.O3()}
	for _, f := range opt.AllFlags()[:8] {
		flags = append(flags, opt.O3().Without(f))
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				for _, fs := range flags {
					if _, err := c.Resolve(key(fs), compile(fs)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	// Prefetchers race the resolvers over the same keys: a prefetch is not
	// a lookup, so the totals below stay exactly those of the resolvers.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range flags {
				fs := flags[(i+g*len(flags)/2)%len(flags)]
				c.Prefetch(key(fs), compile(fs))
			}
		}(g)
	}
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				st := c.Stats()
				if st.Lookups != st.Hits+st.Misses {
					t.Errorf("torn stats: lookups %d != hits %d + misses %d", st.Lookups, st.Hits, st.Misses)
					return
				}
				if st.Versions > st.Entries {
					t.Errorf("torn stats: versions %d > entries %d", st.Versions, st.Entries)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	readers.Wait()
	st := c.Stats()
	if st.Lookups != int64(4*3*len(flags)) {
		t.Fatalf("final lookups = %d, want %d", st.Lookups, 4*3*len(flags))
	}
	if st.Misses != int64(len(flags)) {
		t.Fatalf("final misses = %d, want %d (one compile per distinct key)", st.Misses, len(flags))
	}
}

// TestDistinctKeysCompileInParallel: two keys compile at the same time.
// Each compile waits for the other to start, which can only happen when
// neither holds the cache lock while it compiles.
func TestDistinctKeysCompileInParallel(t *testing.T) {
	key, compile := compileBench(t, "SWIM")
	c := New()
	a, b := opt.O3(), opt.O3().Without(opt.AllFlags()[0])
	started := map[opt.FlagSet]chan struct{}{a: make(chan struct{}), b: make(chan struct{})}
	other := map[opt.FlagSet]opt.FlagSet{a: b, b: a}
	errs := make(chan error, 2)
	for _, fs := range []opt.FlagSet{a, b} {
		go func() {
			_, err := c.Resolve(key(fs), func() (*sim.Version, error) {
				close(started[fs])
				select {
				case <-started[other[fs]]:
				case <-time.After(10 * time.Second):
					return nil, fmt.Errorf("a compile never saw the other one start")
				}
				return compile(fs)()
			})
			errs <- err
		}()
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Lookups != 2 || st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 2 lookups / 2 misses / 2 entries", st)
	}
}

// TestPrefetchReturnsAtOnce: Prefetch never compiles, or waits for, a key
// that is already cached or compiling.
func TestPrefetchReturnsAtOnce(t *testing.T) {
	key, compile := compileBench(t, "SWIM")
	c := New()
	never := func() (*sim.Version, error) {
		t.Error("Prefetch compiled a key that was cached or in flight")
		return nil, fmt.Errorf("unexpected compile")
	}
	cached := opt.O3()
	if _, err := c.Resolve(key(cached), compile(cached)); err != nil {
		t.Fatal(err)
	}
	c.Prefetch(key(cached), never)

	slow := opt.O3().Without(opt.AllFlags()[0])
	entered, release := make(chan struct{}), make(chan struct{})
	resolved := make(chan error)
	go func() {
		_, err := c.Resolve(key(slow), func() (*sim.Version, error) {
			close(entered)
			<-release
			return compile(slow)()
		})
		resolved <- err
	}()
	<-entered
	returned := make(chan struct{})
	go func() {
		c.Prefetch(key(slow), never)
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("Prefetch of an in-flight key waited for its compile")
	}
	close(release)
	if err := <-resolved; err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Lookups != 2 || st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 2 lookups / 2 misses (prefetches are not lookups)", st)
	}
}

// TestPrefetchKeepsStats: prefetching a set of keys in parallel and then
// resolving them leaves the cache exactly as resolving them serially does
// — the same Stats and the same exported entries, content-dedup aliases
// included, because prefetched results are published in Resolve order.
func TestPrefetchKeepsStats(t *testing.T) {
	key, compile := compileBench(t, "SWIM")
	flags := []opt.FlagSet{opt.O3()}
	for _, f := range opt.AllFlags()[:12] {
		flags = append(flags, opt.O3().Without(f))
	}
	resolveAll := func(c *Cache) {
		for _, fs := range append(flags, flags...) {
			if _, err := c.Resolve(key(fs), compile(fs)); err != nil {
				t.Fatal(err)
			}
		}
	}
	serial := New()
	resolveAll(serial)

	prefetched := New()
	var wg sync.WaitGroup
	for i := len(flags) - 1; i >= 0; i-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prefetched.Prefetch(key(flags[i]), compile(flags[i]))
		}()
	}
	wg.Wait()
	if st := prefetched.Stats(); st != (Stats{}) {
		t.Fatalf("prefetching alone changed the stats: %+v", st)
	}
	resolveAll(prefetched)

	if a, b := serial.Stats(), prefetched.Stats(); a != b {
		t.Fatalf("stats differ:\nserial     %+v\nprefetched %+v", a, b)
	}
	if a, b := serial.Export().Entries, prefetched.Export().Entries; !slices.Equal(a, b) {
		t.Fatalf("exported entries differ:\nserial     %+v\nprefetched %+v", a, b)
	}
}

// TestFailedPrefetchIsRetried: a Resolve that finds a prefetch failed, or
// waited on one that failed, compiles the key itself, and counts one
// lookup and one miss.
func TestFailedPrefetchIsRetried(t *testing.T) {
	key, compile := compileBench(t, "SWIM")
	fail := func() (*sim.Version, error) { return nil, fmt.Errorf("injected") }

	c := New()
	c.Prefetch(key(opt.O3()), fail)
	if _, err := c.Resolve(key(opt.O3()), compile(opt.O3())); err != nil {
		t.Fatal(err)
	}

	fs := opt.O3().Without(opt.AllFlags()[0])
	entered, release, prefetched := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(prefetched)
		c.Prefetch(key(fs), func() (*sim.Version, error) {
			close(entered)
			<-release
			return nil, fmt.Errorf("injected")
		})
	}()
	<-entered
	resolved := make(chan error)
	go func() {
		_, err := c.Resolve(key(fs), compile(fs))
		resolved <- err
	}()
	// Let the Resolve claim the in-flight prefetch before it fails.
	for claimed := false; !claimed; {
		c.mu.Lock()
		claimed = c.flight[key(fs)].claimed
		c.mu.Unlock()
	}
	close(release)
	<-prefetched
	if err := <-resolved; err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Lookups != 2 || st.Misses != 2 || st.Entries != 2 || len(c.flight) != 0 {
		t.Fatalf("stats = %+v with %d in flight, want 2 lookups / 2 misses / 2 entries, none in flight", st, len(c.flight))
	}
}

// TestHitRateZeroLookups pins the fresh-cache stats path the serve /stats
// endpoint exercises before any job has run: HitRate must be exactly 0
// (never NaN, which json.Marshal rejects), and the rate must track
// Hits/Lookups once traffic arrives.
func TestHitRateZeroLookups(t *testing.T) {
	var zero Stats
	if got := zero.HitRate(); got != 0 {
		t.Fatalf("zero-lookup HitRate = %v, want 0", got)
	}

	key, compile := compileBench(t, "SWIM")
	c := New()
	k := key(opt.O3())
	for i := 0; i < 4; i++ {
		if _, err := c.Resolve(k, compile(opt.O3())); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if got, want := st.HitRate(), 0.75; got != want {
		t.Fatalf("HitRate after 4 lookups / 3 hits = %v, want %v", got, want)
	}
}
