package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// damageCase is one record file under test: its intact bytes and a way to
// open a damaged copy, returning the recovery report and how many of the
// file's records, in order, the open kept.
type damageCase struct {
	name  string
	magic string
	data  []byte
	open  func(t *testing.T, data []byte) (FileRecovery, int)
}

// journalCase writes a four-record journal and opens damaged copies of it
// with OpenJournal; a kept record is one whose ID Latest still returns.
// Each reopen must find the recovered file clean and holding the same
// records, which checks the atomic rewrite.
func journalCase(t *testing.T) damageCase {
	dir := t.TempDir()
	path := filepath.Join(dir, JournalFile)
	j, err := NewJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	for i := 0; i < n; i++ {
		if err := j.Append(Record{Kind: "tune", ID: fmt.Sprint("id", i), Round: i,
			State: json.RawMessage(`{"x":1}`)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	open := func(t *testing.T, damaged []byte) (FileRecovery, int) {
		t.Helper()
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("OpenJournal: %v", err)
		}
		rep := j.Recovery()
		kept := 0
		for kept < n {
			if _, ok := j.Latest(fmt.Sprint("id", kept)); !ok {
				break
			}
			kept++
		}
		if j.Len() != kept {
			t.Fatalf("journal holds %d IDs, but only the first %d in order", j.Len(), kept)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if got := again.Recovery(); got.FileRecovery != (FileRecovery{Records: kept}) || again.Len() != kept {
			t.Fatalf("reopen after recovery = %+v with %d IDs, want %d clean records", got, again.Len(), kept)
		}
		again.Close()
		return rep.FileRecovery, kept
	}
	return damageCase{name: "journal", magic: journalMagic, data: data, open: open}
}

// storeCase flushes a four-memo store and opens damaged copies of it with
// Open; a kept record is one whose memo lookupMemo still answers.
func storeCase(t *testing.T) damageCase {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"a", "b", "c", "d"}
	for _, k := range keys {
		s.RecordMemo("rate", k, []byte("payload-"+k))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, storeFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	open := func(t *testing.T, damaged []byte) (FileRecovery, int) {
		t.Helper()
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		kept := 0
		for kept < len(keys) {
			if _, ok := s.lookupMemo("rate", keys[kept]); !ok {
				break
			}
			kept++
		}
		if got := s.Stats().Memos; got != int64(kept) {
			t.Fatalf("store holds %d memos, but only the first %d in order", got, kept)
		}
		return s.Recovery().FileRecovery, kept
	}
	return damageCase{name: "store", magic: storeMagic, data: data, open: open}
}

// TestRecordFileDamage cuts and flips both record files at every byte.
// Open must never fail, and must keep exactly the records that lie wholly
// before the damage, reporting the rest as a dropped tail; damage inside
// the header opens empty with header_invalid, and the empty file opens
// clean.
func TestRecordFileDamage(t *testing.T) {
	for _, c := range []damageCase{journalCase(t), storeCase(t)} {
		t.Run(c.name, func(t *testing.T) {
			recs, rep := parseFile(c.data, c.magic)
			if rep != (FileRecovery{Records: 4}) || len(recs) != 4 {
				t.Fatalf("intact file parses as %+v, want 4 clean records", rep)
			}
			// wholly returns how many records end at or before offset off.
			wholly := func(off int) int {
				k := 0
				for k < len(recs) && recs[k].end <= off {
					k++
				}
				return k
			}
			check := func(what string, damaged []byte, at int) {
				t.Helper()
				got, kept := c.open(t, damaged)
				var want FileRecovery
				switch {
				case len(damaged) == 0:
				case at < headerLen:
					want = FileRecovery{DroppedBytes: len(damaged), HeaderInvalid: true}
				default:
					k := wholly(at)
					end := headerLen
					if k > 0 {
						end = recs[k-1].end
					}
					want = FileRecovery{Records: k, DroppedBytes: len(damaged) - end, TornTail: len(damaged) > end}
				}
				if got != want || kept != want.Records {
					t.Fatalf("%s: recovery %+v keeping %d record(s), want %+v", what, got, kept, want)
				}
			}
			for l := 0; l < len(c.data); l++ {
				check(fmt.Sprintf("cut to %d bytes", l), c.data[:l], l)
			}
			for pos := range c.data {
				flipped := bytes.Clone(c.data)
				flipped[pos] ^= 0x20
				check(fmt.Sprintf("flip at byte %d", pos), flipped, pos)
			}
		})
	}
}

// FuzzRecordFile: parseFile never panics, keeps only a prefix it can
// account for, and encoding what it kept under the same magic reproduces
// that prefix byte for byte, which parses back to the same records. The
// input's zero-separated chunks are also encoded as records and must parse
// back unchanged. Together: encode followed by parse is the identity.
func FuzzRecordFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, magic := range []string{storeMagic, journalMagic} {
			recs, rep := parseFile(data, magic)
			if rep.Records != len(recs) || rep.DroppedBytes < 0 || rep.DroppedBytes > len(data) {
				t.Fatalf("%s: inconsistent report %+v for %d records", magic, rep, len(recs))
			}
			if len(data) == 0 || rep.HeaderInvalid {
				if len(recs) != 0 || rep.DroppedBytes != len(data) || rep.TornTail {
					t.Fatalf("%s: unreadable file parsed as %+v", magic, rep)
				}
				continue
			}
			enc := appendHeader(nil, magic)
			for _, r := range recs {
				enc = appendRecord(enc, r.kind, r.payload)
				if r.end != len(enc) {
					t.Fatalf("%s: record ends at %d, re-encoded at %d", magic, r.end, len(enc))
				}
			}
			if !bytes.Equal(enc, data[:len(data)-rep.DroppedBytes]) {
				t.Fatalf("%s: re-encoding the kept records differs from the kept prefix", magic)
			}

			var chunks []rawRecord
			enc = appendHeader(nil, magic)
			for i, p := range bytes.Split(data, []byte{0}) {
				enc = appendRecord(enc, byte(i), p)
				chunks = append(chunks, rawRecord{kind: byte(i), payload: p, end: len(enc)})
			}
			back, rep := parseFile(enc, magic)
			if rep != (FileRecovery{Records: len(chunks)}) || len(back) != len(chunks) {
				t.Fatalf("%s: %d encoded records parse as %+v", magic, len(chunks), rep)
			}
			for i := range back {
				if back[i].kind != chunks[i].kind || back[i].end != chunks[i].end ||
					!bytes.Equal(back[i].payload, chunks[i].payload) {
					t.Fatalf("%s: record %d changed in the round trip", magic, i)
				}
			}
		}
	})
}

// TestJournalCompactsSuperseded: a journal holding five rounds of three
// checkpoint IDs reopens as one frame per ID — each ID's latest record, in
// the order those records were written — with the same Latest for every
// ID, reports the twelve superseded records, and reopens clean after that.
func TestJournalCompactsSuperseded(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalFile)
	j, err := NewJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"a", "b", "c"}
	for round := 1; round <= 5; round++ {
		for _, id := range ids {
			rec := Record{Kind: "tune", ID: id, Round: round, Stopped: round == 5 && id == "b",
				State: json.RawMessage(fmt.Sprintf(`{"round":%d,"id":%q}`, round, id))}
			if err := j.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := map[string]Record{}
	for _, id := range ids {
		want[id], _ = j.Latest(id)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b := JournalBoundaries(data)

	j, err = OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	rep := j.Recovery()
	if rep != (JournalRecovery{FileRecovery: FileRecovery{Records: 15}, IDs: 3, Superseded: 12, Rewritten: true}) {
		t.Fatalf("recovery = %+v, want 15 records over 3 IDs, 12 superseded, rewritten", rep)
	}
	for _, id := range ids {
		got, ok := j.Latest(id)
		if !ok || !bytes.Equal(mustJSON(t, got), mustJSON(t, want[id])) {
			t.Errorf("Latest(%s) = %+v, want %+v", id, got, want[id])
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	compacted, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The last round's three frames, verbatim, behind a fresh header.
	if wantFile := append(appendHeader(nil, journalMagic), data[b[12]:b[15]]...); !bytes.Equal(compacted, wantFile) {
		t.Fatalf("compacted journal is %d bytes, want the header and the last 3 frames (%d bytes)", len(compacted), len(wantFile))
	}

	j, err = OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if rep := j.Recovery(); rep != (JournalRecovery{FileRecovery: FileRecovery{Records: 3}, IDs: 3}) {
		t.Fatalf("reopen of the compacted journal = %+v, want 3 clean records", rep)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
