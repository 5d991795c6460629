package persist

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Recovered is the outcome of scanning a state directory.
type Recovered struct {
	// Seq is the epoch sequence of the recovered state; Payload its body.
	Seq     uint64
	Payload []byte
	// Stats describes how the recovery went (replay counts, skipped
	// corruption, torn tails) for the wan.recovery.* surfacing.
	Stats RecoveryStats
}

// RecoveryStats counts what recovery read and what it had to discard.
type RecoveryStats struct {
	// RecordsReplayed is the number of checksum-valid records examined
	// across the journals.
	RecordsReplayed int
	// CorruptSkipped counts checksum failures, torn tails, and unreadable
	// files that recovery stepped over record by record.
	CorruptSkipped int
	// TornTail reports that at least one journal ended mid-record — the
	// signature of a crash during Append.
	TornTail bool
}

// journalName builds a journal's on-disk file name. Journals carry the
// writing incarnation's generation so two incarnations recovering from the
// same sequence never append to one another's files.
func journalName(base, gen uint64) string {
	return fmt.Sprintf("journal-%016x-%08x", base, gen)
}

func parseJournalName(name string) (base, gen uint64, ok bool) {
	s, found := strings.CutPrefix(name, "journal-")
	if !found || strings.HasSuffix(s, ".tmp") {
		return 0, 0, false
	}
	b, g, found := strings.Cut(s, "-")
	if !found {
		return 0, 0, false
	}
	bv, err1 := strconv.ParseUint(b, 16, 64)
	gv, err2 := strconv.ParseUint(g, 16, 64)
	return bv, gv, err1 == nil && err2 == nil
}

// stateFile is one record file of a state directory: a journal based at
// base and written by generation gen.
type stateFile struct {
	base uint64
	gen  uint64
}

func (f stateFile) name() string { return journalName(f.base, f.gen) }

// listDir is the one listing of a state directory: its journals in scan
// order, by (base, generation), regardless of directory iteration order.
// Any other file (LOCK, gen, a *.tmp leftover, a snap-* file an older build
// wrote) is not a record file and is never read.
func listDir(fs FS, dir string) ([]stateFile, error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("persist: scan %s: %w", dir, err)
	}
	var files []stateFile
	for _, name := range names {
		if base, gen, ok := parseJournalName(name); ok {
			files = append(files, stateFile{base: base, gen: gen})
		}
	}
	slices.SortFunc(files, func(a, b stateFile) int {
		return cmp.Or(cmp.Compare(a.base, b.base), cmp.Compare(a.gen, b.gen))
	})
	return files, nil
}

// dirScan is one read of a state directory: every record file's bytes back
// to back in buf, and the checksum-valid records parsed from them, whose
// bodies and frames alias buf. A caller that reads the same directory
// repeatedly keeps one dirScan, so each read reuses the buffers of the one
// before; a record that must outlive the next read is copied out first.
type dirScan struct {
	buf  []byte
	recs []record
}

// scanDir is the one reader of a state directory: it reads every record file
// into s, in listDir's order, and keeps every checksum-valid record. Every
// file contributes its valid record prefix — the scan of a file stops at its
// first torn or corrupt record, and a file without the magic contributes
// nothing — so nothing that fails a checksum is ever returned, and nothing is
// parsed past the bytes this read appended. stats counts what was read and
// what was skipped; dead is the number of non-empty files without a valid
// magic.
// Recovery keeps the newest record; the Replicator keeps those above its
// high-water mark.
func scanDir(fs FS, dir string, s *dirScan) (stats RecoveryStats, dead int, err error) {
	s.buf, s.recs = s.buf[:0], s.recs[:0]
	files, err := listDir(fs, dir)
	if err != nil {
		return stats, 0, err
	}
	for _, f := range files {
		start := len(s.buf)
		buf, err := fs.AppendFile(s.buf, dir+"/"+f.name())
		if err != nil {
			stats.CorruptSkipped++
			continue
		}
		s.buf = buf
		b := buf[start:]
		if len(b) > 0 && !bytes.HasPrefix(b, magic) {
			dead++
		}
		recs, torn, corrupt := appendRecords(s.recs, b)
		s.recs = recs
		stats.CorruptSkipped += corrupt
		if torn {
			stats.TornTail = true
		}
	}
	stats.RecordsReplayed = len(s.recs)
	return stats, dead, nil
}

// recoverDir scans dir through fs and returns the newest valid state: the
// record with the highest sequence wins, and of two at one sequence the
// later-scanned. A directory with no valid record returns ErrNoState.
func recoverDir(fs FS, dir string) (*Recovered, error) {
	var s dirScan
	stats, _, err := scanDir(fs, dir, &s)
	if err != nil {
		return nil, err
	}
	rec := &Recovered{Stats: stats}
	if len(s.recs) == 0 {
		return rec, ErrNoState
	}
	newest := s.recs[0]
	for _, r := range s.recs[1:] {
		if r.seq >= newest.seq {
			newest = r
		}
	}
	rec.Seq = newest.seq
	rec.Payload = append([]byte(nil), newest.body...)
	return rec, nil
}

// Recover scans a state directory read-only (no lock, no generation bump)
// and returns the newest valid state. It is what the fuzz target drives:
// for arbitrary directory contents it must return a checksum-valid record
// or ErrNoState — never panic, never torn state.
func Recover(dir string) (*Recovered, error) {
	return recoverDir(osFS{}, dir)
}
