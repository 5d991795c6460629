package persist

import (
	"io"
	"os"
	"testing"

	"prete/internal/obs"
)

// The Replicator reads a leader's state directory with the scan recovery
// uses; these tests pin that reader: what it ships from a live, torn,
// corrupt, pruned or not-yet-created directory, and that reading never
// writes.

// readOnlyFS hands reads through to inner and fails the test on any write
// operation: proof that the Replicator's filesystem footprint is read-only,
// which is what makes it safe to point at a live leader's directory.
type readOnlyFS struct {
	t     *testing.T
	inner FS
}

func (r readOnlyFS) MkdirAll(dir string) error {
	r.t.Fatalf("reader wrote: MkdirAll %s", dir)
	return nil
}

func (r readOnlyFS) Lock(name string) (io.Closer, error) {
	r.t.Fatalf("reader locked: %s", name)
	return nil, nil
}

func (r readOnlyFS) OpenAppend(name string) (File, error) {
	r.t.Fatalf("reader wrote: OpenAppend %s", name)
	return nil, nil
}

func (r readOnlyFS) Create(name string) (File, error) {
	r.t.Fatalf("reader wrote: Create %s", name)
	return nil, nil
}

func (r readOnlyFS) Rename(oldname, newname string) error {
	r.t.Fatalf("reader wrote: Rename %s -> %s", oldname, newname)
	return nil
}

func (r readOnlyFS) Remove(name string) error {
	r.t.Fatalf("reader wrote: Remove %s", name)
	return nil
}

func (r readOnlyFS) SyncDir(dir string) error {
	r.t.Fatalf("reader wrote: SyncDir %s", dir)
	return nil
}

func (r readOnlyFS) AppendFile(buf []byte, name string) ([]byte, error) {
	return r.inner.AppendFile(buf, name)
}
func (r readOnlyFS) ReadDir(dir string) ([]string, error) { return r.inner.ReadDir(dir) }

// shipLog is a Pipe standing in for a standby that takes every frame: it
// acks each one and records what was shipped.
type shipLog struct {
	shipped []record
}

func (p *shipLog) Ship(frame []byte, snapshot bool) (uint64, bool, error) {
	seq, body, err := DecodeReplFrame(frame)
	if err != nil {
		return 0, true, nil
	}
	p.shipped = append(p.shipped, record{seq: seq, body: append([]byte(nil), body...)})
	return seq, false, nil
}

// newest returns the last shipped record (seq 0 before the first).
func (p *shipLog) newest() record {
	if len(p.shipped) == 0 {
		return record{}
	}
	return p.shipped[len(p.shipped)-1]
}

// newTestReplicator reads dir through opt.FS wrapped read-only (nil: the
// operating system) and ships to one shipLog.
func newTestReplicator(t *testing.T, dir string, opt ReplicatorOptions) (*Replicator, *shipLog) {
	t.Helper()
	if opt.FS == nil {
		opt.FS = osFS{}
	}
	opt.FS = readOnlyFS{t: t, inner: opt.FS}
	r, err := NewReplicator(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	log := &shipLog{}
	r.AddTarget("standby", log)
	return r, log
}

// tick runs one Tick and returns the records it shipped.
func tick(t *testing.T, r *Replicator, log *shipLog) []record {
	t.Helper()
	n := len(log.shipped)
	if err := r.Tick(); err != nil {
		t.Fatalf("tick: %v", err)
	}
	return log.shipped[n:]
}

// TestReaderTailsLiveStore: a replicator reading a directory a live store
// is appending to ships each epoch exactly once, in order, across journal
// appends, rotations and the pruning of superseded journals.
func TestReaderTailsLiveStore(t *testing.T) {
	fs := newMemFS(-1)
	st, err := Open("state", Options{CompactEvery: 3, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	r, log := newTestReplicator(t, "state", ReplicatorOptions{FS: fs})

	if recs := tick(t, r, log); len(recs) != 0 {
		t.Fatalf("tick over an empty store shipped %v", recs)
	}
	for e := uint64(1); e <= 8; e++ {
		if err := st.Append(e, crashBody(e)); err != nil {
			t.Fatal(err)
		}
		recs := tick(t, r, log)
		if len(recs) != 1 || recs[0].seq != e {
			t.Fatalf("epoch %d: shipped %v, want exactly seq %d", e, recs, e)
		}
		if string(recs[0].body) != string(crashBody(e)) {
			t.Fatalf("epoch %d: payload %q, want %q", e, recs[0].body, crashBody(e))
		}
	}
	// Quiet store: nothing new.
	if recs := tick(t, r, log); len(recs) != 0 {
		t.Fatalf("tick over a quiet store shipped %v", recs)
	}
}

// TestReaderFromScratchCatchesUp: a replicator started against an already
// populated directory catches a fresh standby up on its first tick. The
// script's rotations pruned epochs 1..3, so the directory no longer reaches
// back to the standby's prefix, and the catch-up is one re-sync: the newest
// epoch, shipped to skip the hole.
func TestReaderFromScratchCatchesUp(t *testing.T) {
	fs := newMemFS(-1)
	if acked := crashScript(fs, "state"); acked != 8 {
		t.Fatalf("script acked %d, want 8", acked)
	}
	reg := obs.NewRegistry()
	r, log := newTestReplicator(t, "state", ReplicatorOptions{FS: fs, Metrics: reg})
	recs := tick(t, r, log)
	if len(recs) != 1 || recs[0].seq != 8 || string(recs[0].body) != string(crashBody(8)) {
		t.Fatalf("catch-up shipped %v, want epoch 8 alone", recs)
	}
	if n := reg.Counter("persist.repl.resyncs").Value(); n != 1 {
		t.Fatalf("catch-up took %d re-syncs, want 1", n)
	}
	if n := reg.Counter("persist.repl.tailed").Value(); n != 5 {
		t.Fatalf("first tick read %d records, want 5 (epochs 4..8)", n)
	}
}

// TestReaderTornTailCompletesLater: a record torn mid-append is not
// shipped, and once the remaining bytes land the very next tick ships it —
// exactly once.
func TestReaderTornTailCompletesLater(t *testing.T) {
	fs := newMemFS(-1)
	full := append([]byte(nil), magic...)
	full = appendRecord(full, 1, []byte("one"))
	mark := len(full)
	full = appendRecord(full, 2, []byte("two"))

	name := "state/" + journalName(0, 1)
	cut := mark + 5 // mid-header of record 2
	fs.files[name] = append([]byte(nil), full[:cut]...)

	r, log := newTestReplicator(t, "state", ReplicatorOptions{FS: fs})
	if recs := tick(t, r, log); len(recs) != 1 || recs[0].seq != 1 {
		t.Fatalf("torn tail shipped %v, want only seq 1", recs)
	}
	// The append completes (leader finished its write + fsync).
	fs.files[name] = append([]byte(nil), full...)
	recs := tick(t, r, log)
	if len(recs) != 1 || recs[0].seq != 2 || string(recs[0].body) != "two" {
		t.Fatalf("completed tail shipped %v, want seq 2 %q", recs, "two")
	}
	if recs := tick(t, r, log); len(recs) != 0 {
		t.Fatalf("completed tail shipped again: %v", recs)
	}
}

// TestReaderStopsAtCorruptRecord: a checksum-failing record stops the read
// at the same point recovery stops, and records behind it are never
// shipped.
func TestReaderStopsAtCorruptRecord(t *testing.T) {
	fs := newMemFS(-1)
	b := append([]byte(nil), magic...)
	b = appendRecord(b, 1, []byte("one"))
	mark := len(b)
	b = appendRecord(b, 2, []byte("two"))
	b = appendRecord(b, 3, []byte("three"))
	b[mark+recordHeaderLen+2] ^= 0xff // flip a bit inside record 2's payload

	fs.files["state/"+journalName(0, 1)] = b
	r, log := newTestReplicator(t, "state", ReplicatorOptions{FS: fs})
	for poll := 0; poll < 3; poll++ {
		recs := tick(t, r, log)
		if poll == 0 {
			if len(recs) != 1 || recs[0].seq != 1 {
				t.Fatalf("corrupt journal shipped %v, want only seq 1", recs)
			}
		} else if len(recs) != 0 {
			t.Fatalf("tick %d shipped records past the corruption: %v", poll, recs)
		}
	}
}

// TestReaderMissingDirAndClose: a replicator may start before its leader
// creates the directory (nothing shipped, no error) and ships once it
// appears; a closed replicator fails loudly.
func TestReaderMissingDirAndClose(t *testing.T) {
	dir := t.TempDir() + "/not-yet"
	r, log := newTestReplicator(t, dir, ReplicatorOptions{})
	if recs := tick(t, r, log); len(recs) != 0 {
		t.Fatalf("tick over an absent dir shipped %v", recs)
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	b := appendRecord(append([]byte(nil), magic...), 1, []byte("one"))
	if err := os.WriteFile(dir+"/"+journalName(0, 1), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if recs := tick(t, r, log); len(recs) != 1 || recs[0].seq != 1 {
		t.Fatalf("tick over the created dir shipped %v, want seq 1", recs)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Tick(); err == nil {
		t.Fatal("tick after Close succeeded")
	}
}

// TestReaderAgainstLockedStoreOS: on the real filesystem, a replicator
// reads a directory whose flock is held by a live store, while a second
// Store opener still fails fast with the typed LockError.
func TestReaderAgainstLockedStoreOS(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("second writer acquired a held lock")
	} else if _, ok := err.(*LockError); !ok {
		t.Fatalf("second writer error %v, want *LockError", err)
	}
	r, log := newTestReplicator(t, dir, ReplicatorOptions{})
	for e := uint64(1); e <= 3; e++ {
		if err := st.Append(e, crashBody(e)); err != nil {
			t.Fatal(err)
		}
		if recs := tick(t, r, log); len(recs) != 1 || recs[0].seq != e {
			t.Fatalf("epoch %d: live tick shipped %v", e, recs)
		}
	}
}

// crashScriptTailing is crashScript with a replicator ticking after every
// write the store acknowledges, validating each shipped record against the
// scripted bodies. The replicator reads through a write-refusing FS
// wrapper, so any interference with the store's files would fail the test
// immediately.
func crashScriptTailing(t *testing.T, fs FS, dir string, r *Replicator, log *shipLog) (acked uint64) {
	t.Helper()
	poll := func() {
		for _, rec := range tick(t, r, log) {
			if rec.seq < 1 || rec.seq > 8 {
				t.Fatalf("shipped epoch %d outside the script", rec.seq)
			}
			if string(rec.body) != string(crashBody(rec.seq)) {
				t.Fatalf("shipped torn state for epoch %d: %q", rec.seq, rec.body)
			}
		}
	}
	st, err := Open(dir, Options{CompactEvery: 3, FS: fs})
	if err != nil {
		return 0
	}
	defer st.Close()
	poll()
	for e := uint64(1); e <= 8; e++ {
		err := st.Append(e, crashBody(e))
		acked = st.LastSeq()
		poll()
		if err != nil {
			return acked
		}
	}
	return acked
}

// TestReaderNonInterferenceCrashSweep is the multi-opener safety proof: the
// crash-at-every-byte sweep is replayed with a replicator ticking after
// every write, and at every cut point the acked count and the recovered
// state are identical to the replicator-free run — a standby can watch a
// leader die at any byte offset without changing what the next incarnation
// recovers. The newest shipped record is exactly what that incarnation
// recovers.
func TestReaderNonInterferenceCrashSweep(t *testing.T) {
	ref := newMemFS(-1)
	if acked := crashScript(ref, "state"); acked != 8 {
		t.Fatalf("reference run acked %d epochs, want 8", acked)
	}
	total := ref.wrote

	for cut := int64(0); cut <= total; cut++ {
		plain := newMemFS(cut)
		ackedPlain := crashScript(plain, "state")
		recPlain, errPlain := recoverDir(plain, "state")

		watched := newMemFS(cut)
		r, log := newTestReplicator(t, "state", ReplicatorOptions{FS: watched})
		ackedWatched := crashScriptTailing(t, watched, "state", r, log)

		if ackedPlain != ackedWatched {
			t.Fatalf("cut=%d: acked %d with a replicator, %d without — the replicator interfered",
				cut, ackedWatched, ackedPlain)
		}
		recWatched, errWatched := recoverDir(watched, "state")
		if (errPlain == nil) != (errWatched == nil) {
			t.Fatalf("cut=%d: recovery err %v with a replicator, %v without", cut, errWatched, errPlain)
		}
		if errPlain != nil {
			continue
		}
		if recPlain.Seq != recWatched.Seq || string(recPlain.Payload) != string(recWatched.Payload) {
			t.Fatalf("cut=%d: recovery diverged under a replicator: seq %d vs %d",
				cut, recWatched.Seq, recPlain.Seq)
		}
		if got := log.newest(); got.seq != recWatched.Seq || string(got.body) != string(recWatched.Payload) {
			t.Fatalf("cut=%d: newest shipped seq %d, recovery seq %d", cut, got.seq, recWatched.Seq)
		}
	}
}

// TestReaderSurvivesPruning: when rotation prunes old journals out from
// under the replicator, shipped records stay shipped once, and the buffer
// keeps only the newest record once the target acked.
func TestReaderSurvivesPruning(t *testing.T) {
	fs := newMemFS(-1)
	st, err := Open("state", Options{CompactEvery: 1, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	r, log := newTestReplicator(t, "state", ReplicatorOptions{FS: fs})
	for e := uint64(1); e <= 6; e++ {
		if err := st.Append(e, crashBody(e)); err != nil {
			t.Fatal(err)
		}
		if recs := tick(t, r, log); len(recs) != 1 || recs[0].seq != e {
			t.Fatalf("epoch %d under rotation at every record: %v", e, recs)
		}
	}
	if got := len(r.records); got != 1 {
		t.Fatalf("replicator buffers %d records after every ack, want 1", got)
	}
}

// TestReaderIgnoresForeignFiles: stray files (tmp leftovers, unrelated
// names, a snapshot an older build wrote) are never read, and a wrong-magic
// journal is skipped and counted dead without wedging the tick.
func TestReaderIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	good := append([]byte(nil), magic...)
	good = appendRecord(good, 1, []byte("one"))
	if err := os.WriteFile(dir+"/"+journalName(0, 1), good, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir+"/"+journalName(0, 2), []byte("NOTMAGIC"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir+"/"+journalName(1, 1)+".tmp", []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	oldSnap := appendRecord(append([]byte(nil), magic...), 9, []byte("nine"))
	if err := os.WriteFile(dir+"/snap-0000000000000009", oldSnap, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir+"/README", []byte("not a record file"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, log := newTestReplicator(t, dir, ReplicatorOptions{})
	if recs := tick(t, r, log); len(recs) != 1 || recs[0].seq != 1 {
		t.Fatalf("tick over foreign files shipped %v, want only seq 1", recs)
	}
	if got := r.Stats().TailDeadFiles; got != 1 {
		t.Fatalf("TailDeadFiles = %d, want 1 (the wrong-magic journal)", got)
	}
}

// TestReaderFollowsRecoveryRules pins the three cases where the reader
// follows recovery: a file shorter than the magic is dead, a file that
// shrank is read for its valid prefix, and of two journals' records at one
// sequence the later-scanned is shipped.
func TestReaderFollowsRecoveryRules(t *testing.T) {
	fs := newMemFS(-1)
	fs.files["state/"+journalName(0, 0)] = appendRecord(append([]byte(nil), magic...), 2, []byte("older"))
	journal := append([]byte(nil), magic...)
	journal = appendRecord(journal, 1, []byte("one"))
	journal = appendRecord(journal, 2, []byte("journal"))
	fs.files["state/"+journalName(0, 1)] = journal
	fs.files["state/"+journalName(2, 1)] = append([]byte(nil), magic[:3]...)

	r, log := newTestReplicator(t, "state", ReplicatorOptions{FS: fs})
	recs := tick(t, r, log)
	rec, err := recoverDir(fs, "state")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].seq != 2 || string(recs[1].body) != "journal" {
		t.Fatalf("shipped %v, want seqs 1 and 2 with the later journal's body", recs)
	}
	if rec.Seq != 2 || string(rec.Payload) != "journal" {
		t.Fatalf("recovered (%d, %q), want (2, %q)", rec.Seq, rec.Payload, "journal")
	}
	if got := r.Stats().TailDeadFiles; got != 1 {
		t.Fatalf("TailDeadFiles = %d, want 1 (the file shorter than the magic)", got)
	}

	// The journal shrinks to its first record, then grows a new one: the
	// valid prefix is still read and the new record ships.
	shrunk := appendRecord(append([]byte(nil), magic...), 1, []byte("one"))
	fs.files["state/"+journalName(0, 1)] = appendRecord(shrunk, 3, []byte("three"))
	if recs := tick(t, r, log); len(recs) != 1 || recs[0].seq != 3 {
		t.Fatalf("tick over the shrunk journal shipped %v, want seq 3", recs)
	}
}
