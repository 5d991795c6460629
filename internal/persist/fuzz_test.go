package persist

import (
	"bytes"
	"errors"
	"os"
	"testing"
)

// fuzzValidRecords collects every checksum-valid record reachable in the
// fuzzed journals — the oracle set recovery is allowed to return from.
func fuzzValidRecords(files ...[]byte) []record {
	var out []record
	for _, b := range files {
		recs, _, _ := scanRecords(b)
		out = append(out, recs...)
	}
	return out
}

// FuzzRecover feeds arbitrary bytes to the recovery path as a journal, an
// older journal, and a generation file. The contract under fuzz: recovery never
// panics, returns either ErrNoState or a record drawn verbatim from the
// checksum-valid record set (never torn, never spliced), and the directory
// stays usable — a fresh store must open over the wreckage, claim a newer
// generation, and append.
func FuzzRecover(f *testing.F) {
	// Seeds: a well-formed journal, assorted damage, and non-record noise.
	good := append([]byte(nil), magic...)
	good = appendRecord(good, 1, []byte(`{"epoch":1}`))
	good = appendRecord(good, 2, []byte(`{"epoch":2}`))
	older := append([]byte(nil), magic...)
	older = appendRecord(older, 1, []byte(`{"epoch":1}`))
	f.Add(good, older, []byte{})
	f.Add(good[:len(good)-4], older, good)       // torn tail
	f.Add([]byte{}, []byte{}, []byte{})          // empty files
	f.Add([]byte("garbage"), []byte("x"), older) // no magic
	dup := append(append([]byte(nil), good...), good[len(magic):]...)
	f.Add(dup, older, older) // duplicated records
	flip := append([]byte(nil), good...)
	flip[len(flip)-2] ^= 0x40
	f.Add(flip, older, []byte{0xff, 0xfe})

	f.Fuzz(func(t *testing.T, journal, olderJournal, gen []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(dir+"/"+journalName(0, 1), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dir+"/"+journalName(0, 0), olderJournal, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dir+"/gen", gen, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Recover(dir)
		if err != nil {
			if !errors.Is(err, ErrNoState) {
				t.Fatalf("recover: %v (want state or ErrNoState)", err)
			}
		} else {
			// Whatever came back must be one of the checksum-valid records,
			// bit for bit. Note the journal's valid prefix may be shorter
			// than its valid-record set; membership is the safety property
			// (nothing invented, nothing torn).
			valid := fuzzValidRecords(journal, olderJournal)
			found := false
			for _, r := range valid {
				if r.seq == rec.Seq && bytes.Equal(r.body, rec.Payload) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("recovered (seq=%d, %d bytes) is not any checksum-valid input record", rec.Seq, len(rec.Payload))
			}
		}
		// The wreckage must never wedge a new incarnation: open, append,
		// recover the appended record.
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("open over fuzzed dir: %v", err)
		}
		next := st.LastSeq() + 1
		if aerr := st.Append(next, []byte("fresh")); aerr != nil {
			st.Close()
			t.Fatalf("append over fuzzed dir: %v", aerr)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		rec2, err := Recover(dir)
		if err != nil || rec2.Seq < next {
			t.Fatalf("post-append recovery: seq=%v err=%v, want >= %d", rec2, err, next)
		}
	})
}
