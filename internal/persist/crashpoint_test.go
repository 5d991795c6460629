package persist

import (
	"errors"
	"fmt"
	"testing"
)

// crashScript drives one deterministic store lifetime against fs: open,
// eight appended epochs, close. At CompactEvery 3 the Appends of epochs 3
// and 6 close their journals and those of epochs 4 and 7 start new ones
// (pruning the journal based at 0 on the way), so a sweep over the written
// bytes kills journal records, journal headers and the generation file's
// temp file alike. It returns the highest epoch the store reported
// committed (LastSeq) — 0 when even Open failed. Write failures are swallowed: after a crash the process would be
// gone anyway, and the store's broken-flag keeps later writes from
// resurrecting it.
func crashScript(fs FS, dir string) (acked uint64) {
	st, err := Open(dir, Options{CompactEvery: 3, FS: fs})
	if err != nil {
		return 0
	}
	defer st.Close()
	for e := uint64(1); e <= 8; e++ {
		err := st.Append(e, crashBody(e))
		acked = st.LastSeq()
		if err != nil {
			return acked
		}
	}
	return acked
}

// crashBody is the full state at epoch e; recovery must return exactly one
// of these, never a splice of two.
func crashBody(e uint64) []byte {
	return []byte(fmt.Sprintf(`{"epoch":%d,"rates":{"t0":%d.5,"t1":%d.25}}`, e, e, e*2))
}

// TestCrashAtEveryByteOffset is the exhaustive crash-point table test: the
// scripted store lifetime is replayed with the write path killed at every
// single byte offset, and after each crash recovery must yield a prefix of
// the committed epochs — the exact state at some epoch <= 8, at least as
// new as the last acked write, and byte-identical to what was journaled.
func TestCrashAtEveryByteOffset(t *testing.T) {
	// Size the sweep: one unlimited run records the total bytes written.
	ref := newMemFS(-1)
	if acked := crashScript(ref, "state"); acked != 8 {
		t.Fatalf("reference run acked %d epochs, want 8", acked)
	}
	total := ref.wrote
	if total == 0 {
		t.Fatal("reference run wrote nothing")
	}
	refRec, err := recoverDir(ref, "state")
	if err != nil || refRec.Seq != 8 {
		t.Fatalf("reference recovery: seq=%d err=%v", refRec.Seq, err)
	}

	for cut := int64(0); cut <= total; cut++ {
		fs := newMemFS(cut)
		acked := crashScript(fs, "state")
		rec, err := recoverDir(fs, "state")
		if err != nil {
			if !errors.Is(err, ErrNoState) {
				t.Fatalf("cut=%d: recovery error %v (want state or ErrNoState)", cut, err)
			}
			if acked != 0 {
				t.Fatalf("cut=%d: %d epochs acked but recovery found no state", cut, acked)
			}
			continue
		}
		if rec.Seq < acked {
			t.Fatalf("cut=%d: recovered epoch %d older than acked epoch %d (lost a committed write)",
				cut, rec.Seq, acked)
		}
		if rec.Seq > 8 {
			t.Fatalf("cut=%d: recovered epoch %d was never written", cut, rec.Seq)
		}
		if want := crashBody(rec.Seq); string(rec.Payload) != string(want) {
			t.Fatalf("cut=%d: recovered state for epoch %d is torn:\n got %q\nwant %q",
				cut, rec.Seq, rec.Payload, want)
		}
	}
}

// TestCrashThenReopenAppends completes the cycle: after a mid-write crash,
// a new incarnation must open the same directory, observe a strictly newer
// generation, and append past the recovered epoch without tripping over
// the torn tail.
func TestCrashThenReopenAppends(t *testing.T) {
	for _, cut := range []int64{40, 200, 500, 900} {
		fs := newMemFS(cut)
		crashScript(fs, "state")
		fs.mu.Lock()
		fs.budget = -1 // the replacement process writes unimpeded
		delete(fs.locks, "state/LOCK")
		fs.mu.Unlock()
		st, err := Open("state", Options{FS: fs})
		if err != nil {
			t.Fatalf("cut=%d: reopen after crash: %v", cut, err)
		}
		next := st.LastSeq() + 1
		if err := st.Append(next, crashBody(next)); err != nil {
			t.Fatalf("cut=%d: append after crash recovery: %v", cut, err)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("cut=%d: close: %v", cut, err)
		}
	}
}
