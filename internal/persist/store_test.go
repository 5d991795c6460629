package persist

import (
	"errors"
	"os"
	"runtime"
	"testing"
	"time"

	"prete/internal/obs"
)

func body(e uint64) []byte {
	return []byte(`{"epoch":` + string(rune('0'+e%10)) + `,"payload":"state"}`)
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	st, err := Open(dir, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if st.Recovered().Payload != nil {
		t.Fatalf("fresh dir recovered payload %q", st.Recovered().Payload)
	}
	for e := uint64(1); e <= 5; e++ {
		if err := st.Append(e, body(e)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rec := st2.Recovered()
	if rec.Seq != 5 || string(rec.Payload) != string(body(5)) {
		t.Fatalf("recovered seq=%d payload=%q, want seq=5 %q", rec.Seq, rec.Payload, body(5))
	}
	if rec.Stats.RecordsReplayed < 5 {
		t.Errorf("records replayed = %d, want >= 5", rec.Stats.RecordsReplayed)
	}
	if st2.Generation() != st.Generation()+1 {
		t.Errorf("generation %d after %d, want monotone +1", st2.Generation(), st.Generation())
	}
	if reg.Counter("persist.appends").Value() != 5 {
		t.Errorf("persist.appends = %d", reg.Counter("persist.appends").Value())
	}
}

func TestCompactionAndPrune(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{CompactEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for e := uint64(1); e <= 10; e++ {
		if err := st.Append(e, body(e)); err != nil {
			t.Fatal(err)
		}
	}
	// 10 appends with cadence 3 -> snapshots at 3, 6, 9; prune keeps 2.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snaps := 0
	for _, e := range ents {
		if seq, ok := parseSnapName(e.Name()); ok {
			snaps++
			if seq < 6 {
				t.Errorf("pruning left old snapshot %s", e.Name())
			}
		}
	}
	if snaps != 2 {
		t.Errorf("snapshots on disk = %d, want 2 (newest + fallback)", snaps)
	}
	st.Close()
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rec := st2.Recovered(); rec.Seq != 10 || string(rec.Payload) != string(body(10)) {
		t.Fatalf("recovered seq=%d, want 10 (journal suffix after snapshot)", rec.Seq)
	}
}

// TestCompactionAcrossRestarts: a directory whose store is reopened more
// often than every CompactEvery records still compacts, because Open
// counts the records above the newest snapshot towards the cadence. Twenty
// incarnations of ten appends each at the default cadence leave a
// directory that replays at most 2×CompactEvery+1 records.
func TestCompactionAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	const every = 64 // the default cadence
	seq := uint64(0)
	for open := 0; open < 20; open++ {
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			seq++
			if err := st.Append(seq, body(seq)); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := Recover(dir)
	if err != nil || rec.Seq != seq {
		t.Fatalf("recovered seq=%d err=%v, want %d", rec.Seq, err, seq)
	}
	if got := rec.Stats.RecordsReplayed; got > 2*every+1 {
		t.Errorf("recovery replayed %d records of %d appended over 20 opens, want at most %d", got, seq, 2*every+1)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snaps := 0
	for _, e := range ents {
		if _, ok := parseSnapName(e.Name()); ok {
			snaps++
		}
	}
	if snaps == 0 {
		t.Error("no snapshot after 20 opens of 10 appends each")
	}
}

func TestRecoveryFallsBackToOlderSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{CompactEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(1, body(1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(2, body(2)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	// Drop the journals so only the snapshots can answer, then flip a byte
	// inside the newest snapshot's payload.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if _, _, ok := parseJournalName(e.Name()); ok {
			if err := os.Remove(dir + "/" + e.Name()); err != nil {
				t.Fatal(err)
			}
		}
	}
	name := dir + "/" + snapName(2)
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(name, b, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatalf("recovery with corrupt newest snapshot: %v", err)
	}
	if rec.Seq != 1 || string(rec.Payload) != string(body(1)) {
		t.Fatalf("recovered seq=%d payload=%q, want fallback to snapshot 1", rec.Seq, rec.Payload)
	}
	if rec.Stats.CorruptSkipped == 0 {
		t.Error("corrupt snapshot not counted in CorruptSkipped")
	}
}

func TestTornTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(1, body(1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(2, body(2)); err != nil {
		t.Fatal(err)
	}
	jname := dir + "/" + journalName(0, st.Generation())
	st.Close()
	b, err := os.ReadFile(jname)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record mid-payload.
	if err := os.WriteFile(jname, b[:len(b)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatalf("recovery with torn tail: %v", err)
	}
	if rec.Seq != 1 || string(rec.Payload) != string(body(1)) {
		t.Fatalf("recovered seq=%d, want 1 (torn record 2 discarded)", rec.Seq)
	}
	if !rec.Stats.TornTail {
		t.Error("torn tail not reported")
	}
}

func TestSecondOpenFailsFastWithLockError(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, err = Open(dir, Options{})
	var le *LockError
	if !errors.As(err, &le) {
		t.Fatalf("second open: err = %v, want *LockError", err)
	}
	if le.Dir != dir {
		t.Errorf("LockError.Dir = %q, want %q", le.Dir, dir)
	}
	// The journal must be untouched by the failed opener: append still works.
	if err := st.Append(1, body(1)); err != nil {
		t.Fatalf("append after contended open: %v", err)
	}
	st.Close()
	// After release the directory opens normally.
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open after release: %v", err)
	}
	st2.Close()
}

func TestDoubleCloseAndClosedWrites(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v, want nil", err)
	}
	if err := st.Append(1, body(1)); err == nil {
		t.Fatal("append on closed store succeeded")
	}
	if err := st.compact(1, body(1)); err == nil {
		t.Fatal("compact on closed store succeeded")
	}
}

func TestAppendSequenceMustAdvance(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Append(3, body(3)); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(3, body(3)); err == nil {
		t.Fatal("duplicate sequence accepted")
	}
	if err := st.Append(2, body(2)); err == nil {
		t.Fatal("regressing sequence accepted")
	}
}

func TestStoreNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Append(uint64(10*i+1), body(1)); err != nil {
			t.Fatal(err)
		}
		st.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutine leak: %d before, %d after open/close cycles", before, now)
	}
}

func TestRecoverEmptyAndGarbageDirs(t *testing.T) {
	if _, err := Recover(t.TempDir()); !errors.Is(err, ErrNoState) {
		t.Fatalf("empty dir: err = %v, want ErrNoState", err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(dir+"/"+snapName(7), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir+"/"+journalName(0, 1), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if !errors.Is(err, ErrNoState) {
		t.Fatalf("garbage dir: err = %v, want ErrNoState", err)
	}
	if rec.Stats.CorruptSkipped == 0 {
		t.Error("garbage not counted as corrupt")
	}
}

// TestOpenWithoutAppendLeavesNoJournal: an incarnation that journals
// nothing leaves no journal file behind, so a controller that crash-loops
// between Open and its first epoch cannot grow its state directory without
// bound. The generation claim still advances on every open.
func TestOpenWithoutAppendLeavesNoJournal(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(1, body(1)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	journals := func() (n int) {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if _, _, ok := parseJournalName(e.Name()); ok {
				n++
			}
		}
		return n
	}
	before := journals()
	for i := 0; i < 5; i++ {
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := st.Generation(), uint64(i+2); got != want {
			t.Fatalf("open %d claimed generation %d, want %d", i, got, want)
		}
		st.Close()
	}
	if got := journals(); got != before {
		t.Fatalf("five opens without an append left %d journal files, want %d", got, before)
	}
	rec, err := Recover(dir)
	if err != nil || rec.Seq != 1 {
		t.Fatalf("recovered seq=%d err=%v, want epoch 1", rec.Seq, err)
	}
}

// TestGenerationSurvivesCrash checks the fence counter is monotone across
// an "unclean" shutdown (no Close: the flock dies with the fd when the
// store is garbage collected, but we close explicitly to release it).
func TestGenerationSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	var gens []uint64
	for i := 0; i < 3; i++ {
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		gens = append(gens, st.Generation())
		// Simulate a crash: no graceful teardown beyond fd release.
		st.Close()
	}
	for i := 1; i < len(gens); i++ {
		if gens[i] <= gens[i-1] {
			t.Fatalf("generations not strictly increasing: %v", gens)
		}
	}
}
