package serve

import (
	"sync"
	"sync/atomic"
)

// onceTable is the server's single-flight table for a per-job stage that is
// a pure function of its key (the profile run, the ref-dataset
// measurement): each key's function runs at most once per table, jobs
// needing a key while it runs wait for that one run, and later jobs reuse
// its result. Because the value depends only on the key — never on which
// job asked first or what else was running — sharing it changes wall time,
// not a byte of any job's output (ARCHITECTURE §3, rule 2). A nil table
// runs every call privately, which is how NoSharedCache servers behave.
type onceTable[V any] struct {
	mu    sync.Mutex
	calls map[string]*onceCall[V]
	// runs counts keys a do call claimed first; hits counts do calls
	// answered by an earlier claim's run, finished or in flight. Prefetches
	// count in neither, so both keep their meaning whether or not a key's
	// run began as a prefetch.
	runs, hits atomic.Int64
}

// onceCall is one key's single run; claimed is set by the key's first do.
type onceCall[V any] struct {
	run     func() (V, error)
	claimed bool
}

func newOnceTable[V any]() *onceTable[V] {
	return &onceTable[V]{calls: map[string]*onceCall[V]{}}
}

// call returns key's entry, creating it around f when none exists (false).
// Caller holds t.mu.
func (t *onceTable[V]) call(key string, f func() (V, error)) (*onceCall[V], bool) {
	c, ok := t.calls[key]
	if !ok {
		c = &onceCall[V]{run: sync.OnceValues(f)}
		t.calls[key] = c
	}
	return c, ok
}

// do returns key's value, running f only if no earlier call or prefetch
// started key, and waiting for that run otherwise.
func (t *onceTable[V]) do(key string, f func() (V, error)) (V, error) {
	if t == nil {
		return f()
	}
	t.mu.Lock()
	c, _ := t.call(key, f)
	first := !c.claimed
	c.claimed = true
	t.mu.Unlock()
	if first {
		t.runs.Add(1)
	} else {
		t.hits.Add(1)
	}
	return c.run()
}

// prefetch runs f for key on the calling goroutine unless key was already
// started, in which case it returns at once instead of waiting. The value
// is kept for key's do calls, which count as they would without the
// prefetch. No-op on a nil table.
func (t *onceTable[V]) prefetch(key string, f func() (V, error)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	c, started := t.call(key, f)
	t.mu.Unlock()
	if !started {
		c.run()
	}
}

// stats snapshots the counters for /stats (nil for a nil table).
func (t *onceTable[V]) stats() *ReuseStats {
	if t == nil {
		return nil
	}
	return &ReuseStats{Runs: t.runs.Load(), Hits: t.hits.Load()}
}
