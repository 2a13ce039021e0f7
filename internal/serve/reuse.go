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
	calls map[string]func() (V, error)
	// runs counts keys computed; hits counts calls answered by an earlier
	// or in-flight run.
	runs, hits atomic.Int64
}

func newOnceTable[V any]() *onceTable[V] {
	return &onceTable[V]{calls: map[string]func() (V, error){}}
}

// do returns key's value, running f only if no earlier call claimed key.
func (t *onceTable[V]) do(key string, f func() (V, error)) (V, error) {
	if t == nil {
		return f()
	}
	t.mu.Lock()
	call, ok := t.calls[key]
	if !ok {
		call = sync.OnceValues(f)
		t.calls[key] = call
	}
	t.mu.Unlock()
	if ok {
		t.hits.Add(1)
	} else {
		t.runs.Add(1)
	}
	return call()
}

// stats snapshots the counters for /stats (nil for a nil table).
func (t *onceTable[V]) stats() *ReuseStats {
	if t == nil {
		return nil
	}
	return &ReuseStats{Runs: t.runs.Load(), Hits: t.hits.Load()}
}
