package persist

import (
	"errors"
	"os"
	"runtime"
	"slices"
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

// journalRecords returns the sequences of the checksum-valid records each
// journal in dir holds, by file name.
func journalRecords(t *testing.T, dir string) map[string][]uint64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]uint64{}
	for _, e := range ents {
		if _, _, ok := parseJournalName(e.Name()); !ok {
			continue
		}
		b, err := os.ReadFile(dir + "/" + e.Name())
		if err != nil {
			t.Fatal(err)
		}
		recs, _, _ := scanRecords(b)
		seqs := []uint64{}
		for _, r := range recs {
			seqs = append(seqs, r.seq)
		}
		out[e.Name()] = seqs
	}
	return out
}

// checkJournalsBounded asserts the directory bound the store keeps after
// every Append: at most 2×every records in all.
func checkJournalsBounded(t *testing.T, dir string, every int, newest uint64) {
	t.Helper()
	total := 0
	for _, seqs := range journalRecords(t, dir) {
		total += len(seqs)
	}
	if total > 2*every {
		t.Errorf("directory holds %d records at record %d, want at most 2×%d", total, newest, every)
	}
}

// checkJournalsRecent asserts that no journal in dir lies wholly every or
// more sequences behind the newest record newest, which holds once the
// journal after a full one has started.
func checkJournalsRecent(t *testing.T, dir string, every int, newest uint64) {
	t.Helper()
	for name, seqs := range journalRecords(t, dir) {
		if len(seqs) == 0 || seqs[len(seqs)-1]+uint64(every) <= newest {
			t.Errorf("journal %s holds %v, wholly %d or more behind record %d", name, seqs, every, newest)
		}
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
		checkJournalsBounded(t, dir, 3, e)
	}
	// 10 appends with cadence 3 -> journals based at 0, 3, 6 and 9; starting
	// the one at 9 pruned those at 0 and 3.
	got := journalRecords(t, dir)
	want := map[string][]uint64{
		journalName(6, st.Generation()): {7, 8, 9},
		journalName(9, st.Generation()): {10},
	}
	if len(got) != len(want) {
		t.Errorf("journals on disk = %v, want %v", got, want)
	}
	checkJournalsRecent(t, dir, 3, 10)
	for name, seqs := range want {
		if !slices.Equal(got[name], seqs) {
			t.Errorf("journal %s holds %v, want %v", name, got[name], seqs)
		}
	}
	st.Close()
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rec := st2.Recovered(); rec.Seq != 10 || string(rec.Payload) != string(body(10)) {
		t.Fatalf("recovered seq=%d, want 10 (the newest journal's record)", rec.Seq)
	}
}

// TestCompactionAcrossRestarts: a directory whose store is reopened more
// often than every CompactEvery records stays bounded, because starting
// each incarnation's journal prunes the journals the previous one
// supersedes. Twenty incarnations of ten appends each at the default
// cadence leave a directory that replays at most 2×CompactEvery records.
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
		checkJournalsBounded(t, dir, every, seq)
		checkJournalsRecent(t, dir, every, seq)
	}
	rec, err := Recover(dir)
	if err != nil || rec.Seq != seq {
		t.Fatalf("recovered seq=%d err=%v, want %d", rec.Seq, err, seq)
	}
	if got := rec.Stats.RecordsReplayed; got > 2*every {
		t.Errorf("recovery replayed %d records of %d appended over 20 opens, want at most %d", got, seq, 2*every)
	}
}

// TestRecoveryFallsBackToOlderSnapshot: when the newest journal's records
// are corrupt, recovery falls back to the previous journal's newest record,
// which starting the newest journal kept. At cadence 1 that is one record
// of history.
func TestRecoveryFallsBackToOlderSnapshot(t *testing.T) {
	for _, every := range []int{1, 2, 3} {
		dir := t.TempDir()
		st, err := Open(dir, Options{CompactEvery: every})
		if err != nil {
			t.Fatal(err)
		}
		n := uint64(3*every + 1)
		for e := uint64(1); e <= n; e++ {
			if err := st.Append(e, body(e)); err != nil {
				t.Fatal(err)
			}
		}
		st.Close()
		// The newest journal holds record n alone: flip a byte inside its
		// payload.
		name := dir + "/" + journalName(n-1, st.Generation())
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
			t.Fatalf("every=%d: recovery with a corrupt newest journal: %v", every, err)
		}
		if rec.Seq != n-1 || string(rec.Payload) != string(body(n-1)) {
			t.Fatalf("every=%d: recovered seq=%d payload=%q, want fallback to record %d", every, rec.Seq, rec.Payload, n-1)
		}
		if rec.Stats.CorruptSkipped == 0 {
			t.Errorf("every=%d: corrupt record not counted in CorruptSkipped", every)
		}
	}
}

// TestPruneKeepsFallbackPastWipedJournals: journals that a wiped earlier
// lineage left behind, based between the live journals, never make pruning
// drop the journal that holds the fallback record. Pruning judges a journal
// by the journals written after it (a later generation, or the same one at
// a higher base), not by its neighbour in name order.
func TestPruneKeepsFallbackPastWipedJournals(t *testing.T) {
	dir := t.TempDir()
	seq := uint64(0)
	for open := 0; open < 2; open++ { // an earlier lineage: two short journals
		st, err := Open(dir, Options{CompactEvery: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			seq++
			if err := st.Append(seq, body(seq)); err != nil {
				t.Fatal(err)
			}
		}
		st.Close()
	}
	// Total storage corruption: every journal loses its magic, and the next
	// incarnation starts cold among the wreckage (bases 0 and 2).
	for name := range journalRecords(t, dir) {
		b, err := os.ReadFile(dir + "/" + name)
		if err != nil {
			t.Fatal(err)
		}
		copy(b, "DEADBEEF")
		if err := os.WriteFile(dir+"/"+name, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := Open(dir, Options{CompactEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.LastSeq() != 0 {
		t.Fatalf("open over wiped journals recovered seq %d, want a cold start", st.LastSeq())
	}
	// Records 1..4 fill the journal based at 0; the Append of 5 starts the
	// one based at 4 and prunes.
	for e := uint64(1); e <= 5; e++ {
		if err := st.Append(e, body(e)); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	name := dir + "/" + journalName(4, st.Generation())
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(name, b, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil || rec.Seq != 4 || string(rec.Payload) != string(body(4)) {
		t.Fatalf("recovered %+v, %v; want the fallback record 4", rec, err)
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

// TestRecoverEmptyAndGarbageDirs: an empty directory and one holding only
// junk are cold starts. A snap-* file, as older builds wrote next to their
// journals, is not a record file: even a well-formed one is never read.
func TestRecoverEmptyAndGarbageDirs(t *testing.T) {
	if _, err := Recover(t.TempDir()); !errors.Is(err, ErrNoState) {
		t.Fatalf("empty dir: err = %v, want ErrNoState", err)
	}
	dir := t.TempDir()
	oldSnap := appendRecord(append([]byte(nil), magic...), 7, body(7))
	if err := os.WriteFile(dir+"/snap-0000000000000007", oldSnap, 0o644); err != nil {
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
