package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// On-disk layout shared by both record files of this package, the store
// file (peak.store) and the checkpoint journal (peak.journal):
//
//	header  := magic[8] version[u32 LE]
//	record  := kind[1] len[u32 LE] payload[len] crc[u32 LE]
//
// The CRC-32C covers kind, len and payload, so a flipped bit anywhere in a
// record — including its framing — is detected. Records follow each other
// with no padding. The two files differ only in their magic, their record
// kinds and how they are written: the store is rewritten whole by Flush,
// the journal grows by one record per Append. Either way a torn or
// CRC-failing suffix is dropped and the valid prefix kept.
const (
	formatVersion = 1
	headerLen     = 8 + 4
	frameLen      = 1 + 4 + 4 // kind + len + crc around the payload
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendHeader writes the file header for magic onto dst.
func appendHeader(dst []byte, magic string) []byte {
	dst = append(dst, magic...)
	return binary.LittleEndian.AppendUint32(dst, formatVersion)
}

// appendRecord frames one record onto dst.
func appendRecord(dst []byte, kind byte, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, kind)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	crc := crc32.Checksum(dst[start:], crcTable)
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// rawRecord is one framed record as read back from disk, CRC already
// verified; end is the file offset just past its frame.
type rawRecord struct {
	kind    byte
	payload []byte
	end     int
}

// FileRecovery is the part of a recovery report every record file shares:
// what the valid-prefix parse kept and what it dropped. The store's and
// the journal's reports embed it and add their own fields.
type FileRecovery struct {
	// Records is the number of intact frames read.
	Records int `json:"records"`
	// DroppedBytes is the size of the torn/corrupt suffix discarded;
	// TornTail is set when one existed.
	DroppedBytes int  `json:"dropped_bytes"`
	TornTail     bool `json:"torn_tail"`
	// HeaderInvalid is set when the file was not empty but its magic or
	// format version did not match; it then opens with no records.
	HeaderInvalid bool `json:"header_invalid"`
}

// parseFile splits a record file into verified records. It never fails:
// an empty file is a clean file with no records, a bad header yields zero
// records with HeaderInvalid set, and the first undersized or corrupt
// record truncates the read there, reporting the remainder as dropped.
func parseFile(data []byte, magic string) ([]rawRecord, FileRecovery) {
	if len(data) == 0 {
		return nil, FileRecovery{}
	}
	if len(data) < headerLen || string(data[:len(magic)]) != magic ||
		binary.LittleEndian.Uint32(data[len(magic):]) != formatVersion {
		return nil, FileRecovery{DroppedBytes: len(data), HeaderInvalid: true}
	}
	var recs []rawRecord
	off := headerLen
	for off < len(data) {
		rest := data[off:]
		if len(rest) < frameLen {
			break
		}
		n := int(binary.LittleEndian.Uint32(rest[1:5]))
		if n > len(rest)-frameLen {
			break
		}
		want := binary.LittleEndian.Uint32(rest[5+n:])
		if crc32.Checksum(rest[:5+n], crcTable) != want {
			break
		}
		off += frameLen + n
		recs = append(recs, rawRecord{kind: rest[0], payload: rest[5 : 5+n], end: off})
	}
	rep := FileRecovery{Records: len(recs), DroppedBytes: len(data) - off}
	rep.TornTail = rep.DroppedBytes > 0
	return recs, rep
}

// writeFileAtomic replaces the file at path with data: a temp file in the
// same directory, fsynced, then renamed over path, so a crash leaves
// either the old file or the new one, never a half-written mix.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("rewrite %s: %w", path, err)
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("rewrite %s: %w", path, err)
	}
	return nil
}
