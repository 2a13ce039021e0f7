package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"

	"peak/internal/trace"
)

// JournalFile is the checkpoint journal's file name inside a cache
// directory, beside the store file.
const JournalFile = "peak.journal"

// journalMagic opens a journal file's header; recCheckpoint is its only
// record kind, whose payload is one Record as JSON.
const (
	journalMagic       = "PEAKJNL1"
	recCheckpoint byte = 4
)

// Record is one journal entry: a completed unit of work identified by a
// stable checkpoint ID (for a tune: "bench/machine/method/dataset"), the
// round it closed, and an opaque state snapshot sufficient to continue from
// the next round. Stopped marks the final record of a unit — the search
// ended and State is the finished state.
type Record struct {
	Kind    string          `json:"kind"`
	ID      string          `json:"id"`
	Round   int             `json:"round"`
	Stopped bool            `json:"stopped,omitempty"`
	State   json.RawMessage `json:"state,omitempty"`
}

// JournalRecovery describes what OpenJournal found: the shared record-file
// report, the distinct checkpoint IDs among the intact records, how many
// intact records a later record of the same ID superseded, and whether
// the file was rewritten to drop them or a damaged suffix or header.
type JournalRecovery struct {
	FileRecovery
	IDs int `json:"ids"`
	// Superseded is the number of intact records compaction dropped
	// because a later record of the same ID replaces them.
	Superseded int `json:"superseded"`
	// Rewritten reports that recovery replaced the file through an atomic
	// rename: with one frame per ID when records were superseded, and
	// without the damaged suffix (a bare header when the header itself was
	// invalid).
	Rewritten bool `json:"rewritten"`
}

// String formats the report as a one-line operator summary.
func (r JournalRecovery) String() string {
	s := fmt.Sprintf("journal recovery: %d record(s) over %d id(s) loaded", r.Records, r.IDs)
	if r.Superseded > 0 {
		s += fmt.Sprintf("; compacted away %d superseded record(s)", r.Superseded)
	}
	switch {
	case r.HeaderInvalid:
		s += fmt.Sprintf("; header invalid, dropped %d byte(s) and started empty", r.DroppedBytes)
	case r.DroppedBytes > 0:
		s += fmt.Sprintf("; dropped %d byte(s) of torn or corrupt tail", r.DroppedBytes)
	default:
		s += "; no damage"
	}
	return s
}

// Journal is an append-only checkpoint journal. Every record is one
// CRC-framed write flushed to the OS, so a killed process loses at most the
// record being written; OpenJournal detects the torn tail by checksum,
// keeps the valid prefix via an atomic rewrite, and reports what it
// dropped. Unlike the store's memo table, a record is visible to Latest as
// soon as it is appended and the newest record of an ID wins. A Journal is
// safe for concurrent use — experiment drivers and the serve daemon share
// one journal across parallel tunes, keyed by Record.ID.
type Journal struct {
	mu     sync.Mutex
	f      *os.File // nil for an in-memory journal
	latest map[string]Record
	// appends counts records written by this process (loaded records do
	// not count); appendBytes their framed size. Both feed the "journal."
	// metrics.
	appends     int64
	appendBytes int64
	// recovery is what OpenJournal found (zero value for a fresh or
	// in-memory journal).
	recovery JournalRecovery
}

// NewJournal creates (truncating) the journal file at path.
func NewJournal(path string) (*Journal, error) {
	f, err := os.Create(path)
	if err == nil {
		_, err = f.Write(appendHeader(nil, journalMagic))
		if err != nil {
			f.Close()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("store: create journal: %w", err)
	}
	return &Journal{f: f, latest: map[string]Record{}}, nil
}

// OpenJournal opens the journal at path for appending, resuming from what
// it holds. A missing or empty file starts a fresh journal. Otherwise
// every record up to the first torn or corrupt frame is loaded. When
// anything was dropped — including a whole file whose header is not a
// journal's, such as the JSON-lines journal of earlier builds — or when
// some records were superseded by later ones of the same ID, the file is
// rewritten atomically holding one frame per ID, that ID's latest record,
// in the order those records appear; appends then land after intact
// records, and a journal that has checkpointed many rounds reopens no
// larger than one record per ID. Recovery() reports what was found. A
// resumed tune is byte-identical to a fresh one, so dropping records costs
// only the time to redo them.
func OpenJournal(path string) (*Journal, error) {
	data, err := os.ReadFile(path)
	if len(data) == 0 && (err == nil || errors.Is(err, fs.ErrNotExist)) {
		return NewJournal(path)
	}
	if err != nil {
		return nil, fmt.Errorf("store: open journal: %w", err)
	}
	recs, rep := parseFile(data, journalMagic)
	j := &Journal{latest: map[string]Record{}, recovery: JournalRecovery{FileRecovery: rep}}
	last := map[string]int{} // ID -> index in recs of its latest record
	for i, r := range recs {
		var rec Record
		if r.kind == recCheckpoint && json.Unmarshal(r.payload, &rec) == nil {
			j.latest[rec.ID] = rec
			last[rec.ID] = i
		}
	}
	j.recovery.IDs = len(j.latest)
	j.recovery.Superseded = len(recs) - len(last)
	if rep.DroppedBytes > 0 || j.recovery.Superseded > 0 {
		keep := make([]bool, len(recs))
		for _, i := range last {
			keep[i] = true
		}
		valid := appendHeader(nil, journalMagic)
		start := headerLen
		for i, r := range recs {
			if keep[i] {
				valid = append(valid, data[start:r.end]...)
			}
			start = r.end
		}
		if err := writeFileAtomic(path, valid); err != nil {
			return nil, fmt.Errorf("store: recover journal: %w", err)
		}
		j.recovery.Rewritten = true
	}
	if j.f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0); err != nil {
		return nil, fmt.Errorf("store: open journal: %w", err)
	}
	return j, nil
}

// JournalBoundaries returns the offsets at which a journal file's contents
// can be cut cleanly: just past the header, then just past each intact
// record, so data[:b[k]] is the journal holding its first k records and
// data[b[k-1]:b[k]] is the k-th record's frame. It returns nil when the
// header is invalid. Crash tests cut and damage journals with it.
func JournalBoundaries(data []byte) []int {
	recs, rep := parseFile(data, journalMagic)
	if rep.HeaderInvalid || len(data) == 0 {
		return nil
	}
	b := []int{headerLen}
	for _, r := range recs {
		b = append(b, r.end)
	}
	return b
}

// NewMemoryJournal returns a journal that keeps records in memory only
// (tests and callers that want checkpoint semantics without a file).
func NewMemoryJournal() *Journal {
	return &Journal{latest: map[string]Record{}}
}

// Append writes one CRC-framed record in a single write and flushes it to
// the OS.
func (j *Journal) Append(rec Record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: marshal journal record: %w", err)
	}
	frame := appendRecord(make([]byte, 0, len(b)+frameLen), recCheckpoint, b)
	j.mu.Lock()
	defer j.mu.Unlock()
	j.latest[rec.ID] = rec
	j.appends++
	j.appendBytes += int64(len(frame))
	if j.f == nil {
		return nil
	}
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("store: append journal record: %w", err)
	}
	return nil
}

// Recovery returns what OpenJournal found when this journal was opened
// (the zero report for a fresh or in-memory journal).
func (j *Journal) Recovery() JournalRecovery {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.recovery
}

// FillMetrics folds the journal's counters into a metrics registry under
// the "journal." prefix: records appended by this process, their framed
// bytes, and the resident checkpoint-ID count as a gauge. No-op when m is
// nil.
func (j *Journal) FillMetrics(m *trace.Metrics) {
	if m == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	m.Add("journal.appends", j.appends)
	m.Add("journal.append_bytes", j.appendBytes)
	m.Gauge("journal.ids", int64(len(j.latest)))
}

// Latest returns the most recent record for the checkpoint ID, if any.
func (j *Journal) Latest(id string) (Record, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec, ok := j.latest[id]
	return rec, ok
}

// Len returns the number of checkpoint IDs with at least one record.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.latest)
}

// Sync forces journal contents to stable storage (SIGINT handlers call this
// before printing the resume command).
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	return j.f.Sync()
}

// Close syncs and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
