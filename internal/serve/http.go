package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"peak/internal/store"
)

// Stats is the GET /stats payload. Every figure is finite by
// construction: the pool utilization is clamped to [0, 1]
// (sched.Stats.Utilization) and the cache hit rate is 0 when no lookup
// has happened yet (vcache.Stats.HitRate) — json.Marshal rejects NaN, so
// a fresh server's /stats depends on those clamps.
type Stats struct {
	Draining bool `json:"draining"`
	// Jobs counts jobs by state.
	Jobs map[string]int `json:"jobs"`
	// QueueDepth/QueueCapacity describe the admission queue; JobSlots the
	// concurrent-job limit.
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	JobSlots      int `json:"job_slots"`
	// Pool is the shared scheduler pool's instrumentation.
	Pool PoolStats `json:"pool"`
	// Cache is the process-wide shared compile cache (absent when the
	// server runs with private per-job caches).
	Cache *CacheStats `json:"cache,omitempty"`
	// Profiles and Measurements are the single-flight reuse tables for
	// profile runs and ref-dataset measurements (absent with private
	// per-job caches).
	Profiles     *ReuseStats `json:"profiles,omitempty"`
	Measurements *ReuseStats `json:"measurements,omitempty"`
	// JournalIDs is the number of checkpoint IDs holding resumable state
	// (absent without a journal).
	JournalIDs *int `json:"journal_ids,omitempty"`
	// JournalRecovery summarizes what OpenJournal found on disk (absent
	// without a journal): torn tails truncated, corrupt records dropped.
	JournalRecovery *store.JournalRecovery `json:"journal_recovery,omitempty"`
	// Store is the persistent warm-start store's snapshot/flush side
	// (absent without -cache-dir).
	Store *StoreStats `json:"store,omitempty"`
	// Memo is the store's memo table: rating, measurement, profile and job
	// records loaded, queued and consulted (absent without -cache-dir).
	Memo *MemoStats `json:"memo,omitempty"`
	// Breaker is the circuit breaker's state (absent when disabled).
	Breaker *BreakerStats `json:"breaker,omitempty"`
	// WatchdogStalls counts jobs the watchdog canceled for making no round
	// progress, counted at the round poll that cancels each one.
	WatchdogStalls int64 `json:"watchdog_stalls"`
	// RetryAfterSeconds is the current 429 hint: the estimated wait behind
	// the queued work, from the recent mean job duration.
	RetryAfterSeconds int `json:"retry_after_seconds"`
}

// PoolStats mirrors sched.Stats for the shared pool.
type PoolStats struct {
	// Workers is the configured -workers value (0 resolved to GOMAXPROCS);
	// Lanes the pool's budget, max(workers, job slots), shared by running
	// jobs and the rating helpers they start; Helpers counts helpers that
	// joined a rating round on a free lane — it grows while a lone job
	// borrows idle slots' lanes — and LateHelpers those among them that
	// joined a round already running, on a lane freed when a neighbouring
	// job ended or another round ran out of ratings. Utilization is
	// relative to Lanes.
	Workers     int     `json:"workers"`
	Lanes       int     `json:"lanes"`
	Helpers     int64   `json:"helpers"`
	LateHelpers int64   `json:"late_helpers"`
	JobsQueued  int64   `json:"jobs_queued"`
	JobsRunning int64   `json:"jobs_running"`
	JobsDone    int64   `json:"jobs_done"`
	Cycles      int64   `json:"cycles"`
	Utilization float64 `json:"utilization"`
}

// CacheStats mirrors vcache.Stats for the shared compile cache. The two
// disk-tier figures (Preloaded, DiskHits) are omitted when zero, so the
// /stats bytes are unchanged for servers running without a store.
type CacheStats struct {
	Lookups  int64   `json:"lookups"`
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	Shared   int64   `json:"shared"`
	HitRate  float64 `json:"hit_rate"`
	Entries  int64   `json:"entries"`
	Versions int64   `json:"versions"`
	Bytes    int64   `json:"bytes"`
	// Preloaded counts entries installed from the store's snapshot at boot;
	// DiskHits the lookups those preloaded entries answered.
	Preloaded int64 `json:"preloaded,omitempty"`
	DiskHits  int64 `json:"disk_hits,omitempty"`
}

// ReuseStats is a /stats "profiles" or "measurements" block: Runs counts
// the distinct keys computed, Hits the jobs that reused one of them —
// including jobs that waited on another job's in-flight run. A key's
// first lookup counts its run even when a prefetch started it; the
// prefetches themselves count in neither.
type ReuseStats struct {
	Runs int64 `json:"runs"`
	Hits int64 `json:"hits"`
}

// StoreStats is the /stats "store" block: the persistent warm-start
// store's load/flush counters plus the server's own restoration tally.
type StoreStats struct {
	// Versions and Entries count the compile-cache bodies and alias keys
	// loaded from disk at Open; Preloaded the alias keys installed into the
	// shared cache at boot.
	Versions  int64 `json:"versions"`
	Entries   int64 `json:"entries"`
	Preloaded int64 `json:"preloaded"`
	// RestoredJobs counts finished jobs rebuilt from job artifacts at boot;
	// each answers duplicate submissions with zero simulator invocations.
	RestoredJobs int64 `json:"restored_jobs"`
	// Flushes and FlushedBytes describe Flush rewrites this process;
	// FlushError is the last drain-time flush failure (absent when none).
	Flushes      int64  `json:"flushes"`
	FlushedBytes int64  `json:"flushed_bytes"`
	FlushError   string `json:"flush_error,omitempty"`
	// Recovery reports what Open found on disk (torn tails, corrupt or
	// fingerprint-mismatched records dropped).
	Recovery store.RecoveryReport `json:"recovery"`
}

// MemoStats is the /stats "memo" block: the store's memo table of
// finished rating, measurement and job records.
type MemoStats struct {
	// Records is the frozen read set loaded at Open; Pending the new
	// records queued for the next flush.
	Records int64 `json:"records"`
	Pending int64 `json:"pending"`
	// Hits and Misses count lookups against the frozen read set — a hit is
	// a simulation that never ran.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// Stats assembles the current server statistics.
func (s *Server) Stats() Stats {
	st := Stats{
		Draining:      s.draining.Load(),
		Jobs:          map[string]int{},
		QueueDepth:    len(s.queue),
		QueueCapacity: cap(s.queue),
		JobSlots:      s.opts.Jobs,
	}
	s.mu.Lock()
	for _, j := range s.jobs {
		j.mu.Lock()
		st.Jobs[j.state]++
		j.mu.Unlock()
	}
	s.mu.Unlock()
	ps := s.pool.Stats()
	st.Pool = PoolStats{
		Workers:     s.opts.Workers,
		Lanes:       s.pool.Workers(),
		Helpers:     ps.Helpers.Load(),
		LateHelpers: ps.LateHelpers.Load(),
		JobsQueued:  ps.JobsQueued.Load(),
		JobsRunning: ps.JobsRunning.Load(),
		JobsDone:    ps.JobsDone.Load(),
		Cycles:      ps.Cycles.Load(),
		Utilization: ps.Utilization(s.pool.Workers()),
	}
	if s.cache != nil {
		cs := s.cache.Stats()
		st.Cache = &CacheStats{
			Lookups: cs.Lookups, Hits: cs.Hits, Misses: cs.Misses,
			Shared: cs.Shared, HitRate: cs.HitRate(),
			Entries: cs.Entries, Versions: cs.Versions, Bytes: cs.Bytes,
			Preloaded: cs.Preloaded, DiskHits: cs.DiskHits,
		}
	}
	st.Profiles = s.profiles.stats()
	st.Measurements = s.measures.stats()
	if s.store != nil {
		ss := s.store.Stats()
		s.mu.Lock()
		flushErr := s.storeFlushErr
		s.mu.Unlock()
		st.Store = &StoreStats{
			Versions:     ss.Versions,
			Entries:      ss.Entries,
			Preloaded:    ss.Preloaded,
			RestoredJobs: s.restoredJobs.Load(),
			Flushes:      ss.Flushes,
			FlushedBytes: ss.FlushedBytes,
			FlushError:   flushErr,
			Recovery:     s.store.Recovery(),
		}
		st.Memo = &MemoStats{
			Records: ss.Memos,
			Pending: ss.Pending,
			Hits:    ss.MemoHits,
			Misses:  ss.MemoMisses,
		}
	}
	if s.journal != nil {
		n := s.journal.Len()
		st.JournalIDs = &n
		rr := s.journal.Recovery()
		st.JournalRecovery = &rr
	}
	st.Breaker = s.breaker.snapshot()
	st.WatchdogStalls = s.watchdogStalls.Load()
	st.RetryAfterSeconds = s.RetryAfterSeconds()
	return st
}

// Handler returns the service's HTTP routes (Go 1.22 method+pattern mux):
//
//	POST /tune              submit a job (idempotent per canonical spec)
//	GET  /jobs              list all jobs, sorted by spec
//	GET  /jobs/{id}         one job's snapshot
//	GET  /jobs/{id}/trace   the job's JSONL event trace (once terminal)
//	GET  /jobs/{id}/report  the job's text report (byte-for-byte cmd/peak)
//	GET  /healthz           liveness + draining flag
//	GET  /stats             pool, cache, queue and job statistics
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /tune", s.handleTune)
	mux.HandleFunc("GET /jobs", s.handleJobs)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /jobs/{id}/report", s.handleJobReport)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, fmt.Sprintf("encode response: %v", err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// maxTuneBody bounds a POST /tune body. A valid request naming every flag
// is well under 2 KiB.
const maxTuneBody = 64 << 10

// decodeRequest reads a POST /tune body: one JSON object, unknown fields
// refused.
func decodeRequest(body io.Reader) (Request, error) {
	var req Request
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(http.MaxBytesReader(w, r.Body, maxTuneBody))
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("decode request: %w", err))
		return
	}
	res, code, err := s.Submit(req)
	if err != nil {
		switch code {
		case http.StatusTooManyRequests:
			// The queue is full of multi-second tuning jobs: tell the
			// client how long the queued work ahead of it should take.
			w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfterSeconds()))
		case http.StatusServiceUnavailable:
			// An open breaker knows its remaining cooldown; a draining
			// server is going away and sets no hint.
			if secs := s.breaker.retryAfterSeconds(); secs > 0 {
				w.Header().Set("Retry-After", strconv.Itoa(secs))
			}
		}
		writeError(w, code, err)
		return
	}
	writeJSON(w, code, res)
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	res, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	data, done, ok := s.JobTrace(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	if !done {
		writeError(w, http.StatusConflict, fmt.Errorf("job %q has not finished; its trace is flushed at completion", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Write(data)
}

func (s *Server) handleJobReport(w http.ResponseWriter, r *http.Request) {
	res, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	if res.State != StateDone {
		writeError(w, http.StatusConflict, fmt.Errorf("job %q is %s; the report exists once it is done", res.ID, res.State))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, res.Report)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Degraded (breaker shedding or probing) is still 200: the server is
	// alive and serving cached results; load balancers that should stop
	// routing fresh work read the status field.
	body := map[string]any{"status": "ok", "draining": s.draining.Load()}
	if s.breaker.degraded() {
		body["status"] = "degraded"
		body["breaker"] = s.breaker.snapshot().State
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
