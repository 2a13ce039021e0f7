package fault

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeRecords(t *testing.T, path string, n int) []Record {
	t.Helper()
	j, err := NewJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Kind: "tune", ID: string(rune('a' + i)), Round: i,
			State: json.RawMessage(`{"x":` + string(rune('0'+i)) + `}`)}
		if err := j.Append(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestJournalTornFinalFrame: a record missing only the last byte of its
// checksum is dropped even though its payload is whole — the frame is one
// atomic write.
func TestJournalTornFinalFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	writeRecords(t, path, 3)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	rep := j.Recovery()
	if rep.Records != 2 || !rep.TornTail || rep.HeaderInvalid || !rep.Rewritten {
		t.Fatalf("recovery = %+v, want 2 records, torn tail, rewritten", rep)
	}
	if _, ok := j.Latest("c"); ok {
		t.Error("torn record c survived recovery")
	}
}

// TestJournalCRCCatchesCorruption: a bit flip inside a record's payload
// fails the checksum; recovery keeps the valid prefix and drops the
// damaged record and everything after it.
func TestJournalCRCCatchesCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	writeRecords(t, path, 4)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the third record, keeping it valid JSON: the
	// digit inside its state object.
	corrupted := bytes.Replace(data, []byte(`{"x":2}`), []byte(`{"x":7}`), 1)
	if bytes.Equal(corrupted, data) {
		t.Fatal("corruption did not apply")
	}
	if err := os.WriteFile(path, corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	rep := j.Recovery()
	if rep.Records != 2 || rep.DroppedBytes == 0 || !rep.Rewritten {
		t.Fatalf("recovery = %+v, want 2 kept, a dropped tail, rewritten", rep)
	}
	if _, ok := j.Latest("c"); ok {
		t.Error("corrupt record c survived the checksum")
	}
	if _, ok := j.Latest("d"); ok {
		t.Error("record d after the corruption survived")
	}
	if !strings.Contains(rep.String(), "dropped") {
		t.Errorf("recovery summary %q does not mention the drop", rep.String())
	}
}

// TestJournalRecoveryRewriteIsClean: after a torn-tail recovery the file on
// disk holds exactly the valid prefix (atomic rename, no temp debris), and
// appends continue with a clean frame readable by a third open.
func TestJournalRecoveryRewriteIsClean(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.journal")
	writeRecords(t, path, 2)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte{}, data...), []byte(`{"crc":123,"rec":{"kind":"tu`)...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !j.Recovery().Rewritten {
		t.Fatalf("recovery = %+v, want rewritten", j.Recovery())
	}
	if err := j.Append(Record{Kind: "tune", ID: "z", Round: 9}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, data) {
		t.Error("recovered file does not start with the valid prefix")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("recovery left temp debris: %v", entries)
	}
	j3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	rep := j3.Recovery()
	if rep.Records != 3 || rep.DroppedBytes != 0 || rep.TornTail {
		t.Fatalf("third open recovery = %+v, want 3 clean records", rep)
	}
	if rec, ok := j3.Latest("z"); !ok || rec.Round != 9 {
		t.Errorf("appended record z not readable after recovery: %+v %v", rec, ok)
	}
	if !strings.Contains(rep.String(), "no damage") {
		t.Errorf("clean recovery summary %q should say no damage", rep.String())
	}
}

// TestJournalLegacyFormatOpensEmpty: a JSON-lines journal from an earlier
// build is not a journal of this format. It opens with no records and
// header_invalid, is rewritten to an empty journal, and takes appends.
func TestJournalLegacyFormatOpensEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	legacy := `{"crc":1,"rec":{"kind":"tune","id":"a","round":0,"state":{"x":1}}}
{"kind":"tune","id":"b","round":1,"stopped":true,"state":{"x":2}}
`
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	rep := j.Recovery()
	if rep.Records != 0 || !rep.HeaderInvalid || rep.DroppedBytes != len(legacy) || !rep.Rewritten {
		t.Fatalf("recovery = %+v, want header_invalid, nothing kept, rewritten", rep)
	}
	if j.Len() != 0 {
		t.Fatalf("legacy journal loaded %d checkpoint IDs, want 0", j.Len())
	}
	if err := j.Append(Record{Kind: "tune", ID: "b", Round: 2}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rep := j2.Recovery(); rep.Records != 1 || rep.HeaderInvalid || rep.DroppedBytes != 0 {
		t.Fatalf("reopen recovery = %+v, want 1 clean record", rep)
	}
}
