package persist

import (
	"os"
	"testing"
)

// fuzzTailSeed builds the structured seed inputs: a valid journal prefix
// split at interesting offsets so the fuzzer starts from torn-then-completed
// shapes rather than pure noise.
func fuzzTailSeed() (full []byte, marks []int) {
	full = append([]byte(nil), magic...)
	marks = append(marks, len(full))
	full = appendRecord(full, 1, []byte(`{"epoch":1}`))
	marks = append(marks, len(full))
	full = appendRecord(full, 2, []byte(`{"epoch":2}`))
	marks = append(marks, len(full))
	full = appendRecord(full, 3, []byte(`{"epoch":3}`))
	return full, marks
}

// FuzzTail pins what a Replicator ships from arbitrary directory bytes:
// for any journal prefix, any appended growth (the leader writing —
// possibly torn, possibly corrupt), and growth landing either in the
// journal or in the next one the leader rotated to, ticking a Replicator
// into an in-memory Pipe must never panic, must only ship records that are
// checksum-valid in the bytes on disk, must keep sequences strictly
// ascending across ticks, and, whenever Recover finds a sequence above the
// previous high-water mark, must have shipped Recover's (Seq, Payload) last.
func FuzzTail(f *testing.F) {
	full, marks := fuzzTailSeed()
	for _, m := range marks {
		f.Add(full[:m], full[m:], false)
	}
	f.Add(full[:marks[1]+5], full[marks[1]+5:], false) // torn mid-record, then completed
	corrupt := append([]byte(nil), full...)
	corrupt[marks[1]+recordHeaderLen+3] ^= 0x40
	f.Add(corrupt, []byte(nil), false)
	f.Add([]byte("NOT-PRST"), full, false)
	f.Add([]byte(nil), []byte(nil), false)
	next := append([]byte(nil), magic...)
	next = appendRecord(next, 9, []byte(`{"epoch":9}`))
	f.Add(full, next, true)
	tie := appendRecord(nil, 4, []byte(`{"epoch":4,"try":1}`))
	tie = appendRecord(tie, 4, []byte(`{"epoch":4,"try":2}`))
	f.Add(full, tie, false) // two records at one seq: the later-scanned ships

	f.Fuzz(func(t *testing.T, prefix, growth []byte, rotated bool) {
		if len(prefix)+len(growth) > 1<<20 {
			t.Skip("oversized input")
		}
		dir := t.TempDir()
		journal := dir + "/" + journalName(0, 1)
		if err := os.WriteFile(journal, prefix, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := NewReplicator(dir, ReplicatorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		log := &shipLog{}
		r.AddTarget("standby", log)
		hwm := uint64(0)
		tickAndCheck := func(phase string, images map[string][]byte) {
			n, prev := len(log.shipped), hwm
			if err := r.Tick(); err != nil {
				t.Fatalf("%s tick: %v", phase, err)
			}
			shipped := log.shipped[n:]
			checkSurfaced(t, phase, shipped, images)
			for _, rec := range shipped {
				if rec.seq <= hwm {
					t.Fatalf("%s tick shipped seq %d, not strictly above %d", phase, rec.seq, hwm)
				}
				hwm = rec.seq
			}
			rec, err := Recover(dir)
			if err != nil || rec.Seq <= prev {
				return
			}
			if got := log.newest(); got.seq != rec.Seq || string(got.body) != string(rec.Payload) {
				t.Fatalf("%s tick: newest shipped (%d, %q), Recover (%d, %q)",
					phase, got.seq, got.body, rec.Seq, rec.Payload)
			}
		}
		tickAndCheck("first", map[string][]byte{journal: prefix})

		// The "leader" writes: either more journal bytes or a new journal.
		images := map[string][]byte{journal: prefix}
		if rotated {
			nextJournal := dir + "/" + journalName(3, 1)
			if err := os.WriteFile(nextJournal, growth, 0o644); err != nil {
				t.Fatal(err)
			}
			images[nextJournal] = growth
		} else {
			grown := append(append([]byte(nil), prefix...), growth...)
			if err := os.WriteFile(journal, grown, 0o644); err != nil {
				t.Fatal(err)
			}
			images[journal] = grown
		}
		tickAndCheck("second", images)
	})
}

// checkSurfaced asserts every shipped record is a checksum-valid record in
// the valid prefix of one of the file images the replicator could have read.
func checkSurfaced(t *testing.T, phase string, recs []record, images map[string][]byte) {
	t.Helper()
	valid := make(map[uint64][]string)
	for _, img := range images {
		scanned, _, _ := scanRecords(img)
		for _, r := range scanned {
			valid[r.seq] = append(valid[r.seq], string(r.body))
		}
	}
	for _, r := range recs {
		found := false
		for _, body := range valid[r.seq] {
			if body == string(r.body) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("%s tick shipped seq %d payload %q not present as a valid record",
				phase, r.seq, r.body)
		}
	}
}
