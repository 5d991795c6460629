package persist

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"prete/internal/obs"
)

// memPipe is an in-process Pipe with programmable faults: a direct wire to
// an Applier, optionally dropping, corrupting, or refusing frames.
type memPipe struct {
	ap      *Applier
	drop    int // drop the next n ships (transport failure)
	corrupt int // flip a byte in the next n ships
	ships   int
}

func (p *memPipe) Ship(frame []byte, snapshot bool) (uint64, bool, error) {
	p.ships++
	if p.drop > 0 {
		p.drop--
		return 0, false, errors.New("memPipe: dropped")
	}
	f := append([]byte(nil), frame...)
	if p.corrupt > 0 {
		p.corrupt--
		f[len(f)/2] ^= 0xFF
	}
	ack, err := p.ap.Apply(f, snapshot)
	switch {
	case err == nil:
		return ack, false, nil
	case errors.Is(err, ErrGap) || errors.Is(err, ErrBadFrame):
		return ack, true, nil
	default:
		return ack, false, err
	}
}

func TestReplFrameRoundTrip(t *testing.T) {
	body := []byte(`{"epoch":7}`)
	frame := EncodeReplFrame(7, body)
	seq, got, err := DecodeReplFrame(frame)
	if err != nil || seq != 7 || !bytes.Equal(got, body) {
		t.Fatalf("DecodeReplFrame = (%d, %q, %v), want (7, %q, nil)", seq, got, err, body)
	}
	// The wire frame is byte-identical to the on-disk record framing.
	if disk := appendRecord(nil, 7, body); !bytes.Equal(frame, disk) {
		t.Fatalf("wire frame %x differs from disk record %x", frame, disk)
	}
}

func TestDecodeReplFrameRejects(t *testing.T) {
	frame := EncodeReplFrame(3, []byte("abc"))
	cases := map[string][]byte{
		"empty":     nil,
		"torn head": frame[:3],
		"torn body": frame[:len(frame)-1],
		"trailing":  append(append([]byte(nil), frame...), 0x00),
		"flipped": func() []byte {
			f := append([]byte(nil), frame...)
			f[len(f)-1] ^= 0x01
			return f
		}(),
	}
	for name, b := range cases {
		if _, _, err := DecodeReplFrame(b); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
		}
	}
}

func TestApplierExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := obs.NewRegistry()
	ap := NewApplier(st, ApplierOptions{Metrics: reg})

	// In-order records apply.
	for seq := uint64(1); seq <= 3; seq++ {
		ack, err := ap.Apply(EncodeReplFrame(seq, []byte(fmt.Sprintf(`{"epoch":%d}`, seq))), false)
		if err != nil || ack != seq {
			t.Fatalf("apply %d: (%d, %v)", seq, ack, err)
		}
	}
	// Duplicate: acked without effect.
	ack, err := ap.Apply(EncodeReplFrame(2, []byte(`{"epoch":2}`)), false)
	if err != nil || ack != 3 {
		t.Fatalf("dup apply: (%d, %v), want (3, nil)", ack, err)
	}
	// Gap: refused with ErrGap.
	if _, err := ap.Apply(EncodeReplFrame(9, []byte(`{"epoch":9}`)), false); !errors.Is(err, ErrGap) {
		t.Fatalf("gap apply: %v, want ErrGap", err)
	}
	// Re-sync: the same frame flagged to skip sequences jumps the prefix.
	ack, err = ap.Apply(EncodeReplFrame(9, []byte(`{"epoch":9}`)), true)
	if err != nil || ack != 9 {
		t.Fatalf("re-sync apply: (%d, %v), want (9, nil)", ack, err)
	}
	// Bad frame: refused with ErrBadFrame.
	bad := EncodeReplFrame(10, []byte(`{"epoch":10}`))
	bad[len(bad)/2] ^= 0xFF
	if _, err := ap.Apply(bad, false); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bad frame apply: %v, want ErrBadFrame", err)
	}
	for name, want := range map[string]int64{"applied": 3, "snapshot_applies": 1, "dups": 1, "gaps": 1, "bad_frames": 1} {
		if got := reg.Counter("persist.repl." + name).Value(); got != want {
			t.Errorf("persist.repl.%s = %d, want %d", name, got, want)
		}
	}
	if s := ap.Stats(); s.LastSeq != 9 {
		t.Fatalf("stats = %+v", s)
	}

	// The applied prefix is durable: a re-opened store + applier resumes
	// dedup from seq 9.
	st.Close()
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	ap2 := NewApplier(st2, ApplierOptions{})
	if got := ap2.Stats().LastSeq; got != 9 {
		t.Fatalf("reopened applier LastSeq = %d, want 9", got)
	}
}

// TestApplierStandbyJournalBounded: a standby that applies record after
// record rotates on its store's cadence, as the leader does, so what its
// recovery replays stays bounded by the cadence rather than by how many
// records it has mirrored. A re-sync frame that skips sequences is one more
// record in the same journal and keeps the bound.
func TestApplierStandbyJournalBounded(t *testing.T) {
	const every = 8
	dir := t.TempDir()
	st, err := Open(dir, Options{CompactEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ap := NewApplier(st, ApplierOptions{})
	apply := func(seq uint64, resync bool) {
		t.Helper()
		if ack, err := ap.Apply(EncodeReplFrame(seq, crashBody(seq)), resync); err != nil || ack != seq {
			t.Fatalf("apply %d (re-sync %v): (%d, %v)", seq, resync, ack, err)
		}
		rec, err := Recover(dir)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Seq != seq || !bytes.Equal(rec.Payload, crashBody(seq)) {
			t.Fatalf("standby recovered seq %d, want %d", rec.Seq, seq)
		}
		if got := rec.Stats.RecordsReplayed; got > 2*every {
			t.Errorf("standby recovery replayed %d records at seq %d, want at most %d", got, seq, 2*every)
		}
	}
	const n = 3*every + 1
	for seq := uint64(1); seq <= n; seq++ {
		apply(seq, false)
	}
	// The leader's buffer moved on past the standby: a re-sync jumps it to
	// seq 100, and records follow from there.
	apply(100, true)
	for seq := uint64(101); seq <= 100+2*every; seq++ {
		apply(seq, false)
	}
}

// TestNoWritePathLeavesSnapshotFiles: the journal is the only record file.
// A leader that rotates and restarts, a standby that applies records
// through its own rotations, and a standby re-synced past a hole leave
// nothing in either directory but the lock, the generation counter and
// journals: no snap-* file.
func TestNoWritePathLeavesSnapshotFiles(t *testing.T) {
	leaderDir, siteDir := t.TempDir(), t.TempDir()
	onlyJournals := func(phase string) {
		t.Helper()
		for _, dir := range []string{leaderDir, siteDir} {
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				if _, _, ok := parseJournalName(e.Name()); !ok && e.Name() != "LOCK" && e.Name() != "gen" {
					t.Fatalf("%s: %s holds %s, which is not a journal", phase, dir, e.Name())
				}
			}
		}
	}
	reg := obs.NewRegistry()
	seq := uint64(0)
	for open := 1; open <= 3; open++ {
		leader, err := Open(leaderDir, Options{CompactEvery: 2})
		if err != nil {
			t.Fatal(err)
		}
		site, err := Open(siteDir, Options{CompactEvery: 2})
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewReplicator(leaderDir, ReplicatorOptions{RetainRecords: 1})
		if err != nil {
			t.Fatal(err)
		}
		// The first two ships of each incarnation are lost, so the standby
		// falls behind the one-record buffer and is re-synced past the hole.
		r.AddTarget("site", &memPipe{ap: NewApplier(site, ApplierOptions{Metrics: reg}), drop: 2})
		for i := 0; i < 5; i++ {
			seq++
			leaderAppend(t, leader, seq)
			if err := r.Tick(); err != nil {
				t.Fatal(err)
			}
			onlyJournals(fmt.Sprintf("open %d, seq %d", open, seq))
		}
		if got := site.LastSeq(); got != seq {
			t.Fatalf("open %d: standby at seq %d, want %d", open, got, seq)
		}
		r.Close()
		leader.Close()
		site.Close()
	}
	if n := reg.Counter("persist.repl.snapshot_applies").Value(); n < 3 {
		t.Fatalf("%d re-syncs applied over three incarnations, want at least 3", n)
	}
}

// leaderAppend journals one full-state record on the leader store.
func leaderAppend(t *testing.T, st *Store, seq uint64) {
	t.Helper()
	if err := st.Append(seq, []byte(fmt.Sprintf(`{"epoch":%d}`, seq))); err != nil {
		t.Fatal(err)
	}
}

func TestReplicatorShipsAndAccounts(t *testing.T) {
	leaderDir, siteDir := t.TempDir(), t.TempDir()
	leader, err := Open(leaderDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	siteStore, err := Open(siteDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer siteStore.Close()
	ap := NewApplier(siteStore, ApplierOptions{})

	reg := obs.NewRegistry()
	r, err := NewReplicator(leaderDir, ReplicatorOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	pipe := &memPipe{ap: ap}
	r.AddTarget("site-1", pipe)

	for seq := uint64(1); seq <= 5; seq++ {
		leaderAppend(t, leader, seq)
	}
	if err := r.Tick(); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if ap.Stats().LastSeq != 5 {
		t.Fatalf("after tick: applied=%d", ap.Stats().LastSeq)
	}
	if st.Shipped != st.Acked+st.Resent+st.Inflight || st.Inflight != 0 {
		t.Fatalf("accounting identity violated: %+v", st)
	}
	if n := reg.Counter("persist.repl.resyncs").Value(); n != 0 || st.Acked != 5 {
		t.Fatalf("clean stream stats: %+v, %d resyncs", st, n)
	}

	// A dropped ship is counted resent and retried to success next Tick.
	leaderAppend(t, leader, 6)
	pipe.drop = 1
	if err := r.Tick(); err != nil {
		t.Fatal(err)
	}
	if got := ap.Stats().LastSeq; got != 5 {
		t.Fatalf("applied after drop = %d, want 5", got)
	}
	if err := r.Tick(); err != nil {
		t.Fatal(err)
	}
	st = r.Stats()
	if ap.Stats().LastSeq != 6 || st.Resent != 1 {
		t.Fatalf("after retry: %+v applied=%d", st, ap.Stats().LastSeq)
	}
	if st.Shipped != st.Acked+st.Resent || st.Inflight != 0 {
		t.Fatalf("accounting identity violated: %+v", st)
	}
}

// TestReplicatorRemoveTarget: a removed target (a promoted or
// decommissioned site) stops receiving records and drops out of the
// accounting, while remaining targets keep shipping.
func TestReplicatorRemoveTarget(t *testing.T) {
	leaderDir, siteDir := t.TempDir(), t.TempDir()
	leader, err := Open(leaderDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	siteStore, err := Open(siteDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer siteStore.Close()
	ap := NewApplier(siteStore, ApplierOptions{})

	r, err := NewReplicator(leaderDir, ReplicatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.AddTarget("site-1", &memPipe{ap: ap})
	gone := &memPipe{ap: NewApplier(siteStore, ApplierOptions{})}
	r.AddTarget("site-2", gone)

	leaderAppend(t, leader, 1)
	if err := r.Tick(); err != nil {
		t.Fatal(err)
	}
	r.RemoveTarget("site-2")
	r.RemoveTarget("site-2") // absent name is a no-op
	ships := gone.ships
	leaderAppend(t, leader, 2)
	if err := r.Tick(); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if ap.Stats().LastSeq != 2 {
		t.Fatalf("surviving target stalled: applied=%d", ap.Stats().LastSeq)
	}
	if gone.ships != ships {
		t.Fatalf("removed target took %d more frames", gone.ships-ships)
	}
	if st.Shipped != st.Acked+st.Resent+st.Inflight {
		t.Fatalf("accounting identity violated after removal: %+v", st)
	}
}

func TestReplicatorCorruptFrameResyncs(t *testing.T) {
	leaderDir, siteDir := t.TempDir(), t.TempDir()
	leader, err := Open(leaderDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	siteStore, err := Open(siteDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer siteStore.Close()
	reg := obs.NewRegistry()
	ap := NewApplier(siteStore, ApplierOptions{Metrics: reg})
	r, err := NewReplicator(leaderDir, ReplicatorOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	pipe := &memPipe{ap: ap, corrupt: 1}
	r.AddTarget("site-1", pipe)

	leaderAppend(t, leader, 1)
	if err := r.Tick(); err != nil {
		t.Fatal(err)
	}
	// The corrupted record was nacked by the site's CRC; the shipper fell
	// back to a snapshot in the same Tick.
	if n := reg.Counter("persist.repl.resyncs").Value(); n != 1 || ap.Stats().LastSeq != 1 {
		t.Fatalf("after corrupt ship: %d resyncs, applied=%d", n, ap.Stats().LastSeq)
	}
	if b, sn := reg.Counter("persist.repl.bad_frames").Value(), reg.Counter("persist.repl.snapshot_applies").Value(); b != 1 || sn != 1 {
		t.Fatalf("applier counts: bad_frames=%d snapshot_applies=%d, want 1 and 1", b, sn)
	}
}

func TestReplicatorBehindBufferResyncs(t *testing.T) {
	leaderDir, siteDir := t.TempDir(), t.TempDir()
	leader, err := Open(leaderDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	siteStore, err := Open(siteDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer siteStore.Close()
	reg := obs.NewRegistry()
	ap := NewApplier(siteStore, ApplierOptions{Metrics: reg})
	r, err := NewReplicator(leaderDir, ReplicatorOptions{RetainRecords: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	pipe := &memPipe{ap: ap, drop: 2}
	r.AddTarget("site-1", pipe)

	// Seqs 1..3 arrive while the pipe is down and the buffer retains only
	// the newest record: the site is behind the buffer when the pipe heals,
	// so it must be caught up wholesale, never walked through the hole.
	for seq := uint64(1); seq <= 3; seq++ {
		leaderAppend(t, leader, seq)
		if err := r.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if got := ap.Stats().LastSeq; got != 3 {
		t.Fatalf("applied = %d, want 3 (snapshot catch-up)", got)
	}
	if n := reg.Counter("persist.repl.resyncs").Value(); n < 1 {
		t.Fatalf("resyncs = %d, want >= 1", n)
	}
	if a, sn := reg.Counter("persist.repl.applied").Value(), reg.Counter("persist.repl.snapshot_applies").Value(); a != 0 || sn < 1 {
		t.Fatalf("site should have been caught up by snapshot only: applied=%d snapshot_applies=%d", a, sn)
	}
	// The recovered state on the site is the newest epoch, not a stale
	// prefix.
	if got := siteStore.LastSeq(); got != 3 {
		t.Fatalf("site durable seq = %d, want 3", got)
	}
}

// TestReplicatorNoGoroutines pins the replication engine's determinism
// contract structurally: open/close (and a full ship cycle) spawn no
// background goroutines on either side.
func TestReplicatorNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	leaderDir, siteDir := t.TempDir(), t.TempDir()
	leader, err := Open(leaderDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	siteStore, err := Open(siteDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ap := NewApplier(siteStore, ApplierOptions{})
	r, err := NewReplicator(leaderDir, ReplicatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r.AddTarget("site-1", &memPipe{ap: ap})
	leaderAppend(t, leader, 1)
	if err := r.Tick(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	if err := r.Tick(); err == nil {
		t.Fatal("tick on closed replicator succeeded")
	}
	leader.Close()
	siteStore.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutine leak: %d before, %d after", before, now)
	}
}

// TestReaderDeadFileStats: TailDeadFiles is the number of leader files the
// latest scan found without a valid magic — the standby's alarm surface. A
// journal truncated below its magic counts on every tick it is still there,
// and stops counting once it is gone.
func TestReaderDeadFileStats(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(1, []byte(`{"epoch":1}`)); err != nil {
		t.Fatal(err)
	}
	st.Close()

	reg := obs.NewRegistry()
	r, err := NewReplicator(dir, ReplicatorOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Tick(); err != nil {
		t.Fatal(err)
	}
	if s, n := r.Stats(), reg.Counter("persist.repl.tailed").Value(); n != 1 || s.TailDeadFiles != 0 {
		t.Fatalf("healthy stats = %+v, tailed %d", s, n)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var journal string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "journal-") {
			journal = filepath.Join(dir, e.Name())
		}
	}
	if journal == "" {
		t.Fatal("no journal file found")
	}
	if err := os.Truncate(journal, 1); err != nil {
		t.Fatal(err)
	}
	for poll := 0; poll < 2; poll++ {
		if err := r.Tick(); err != nil {
			t.Fatal(err)
		}
		if got := r.Stats().TailDeadFiles; got != 1 {
			t.Fatalf("tick %d after truncation: TailDeadFiles = %d, want 1", poll, got)
		}
	}
	if err := os.Remove(journal); err != nil {
		t.Fatal(err)
	}
	if err := r.Tick(); err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().TailDeadFiles; got != 0 {
		t.Fatalf("TailDeadFiles = %d after the dead file went, want 0", got)
	}
}

// applyPipe wires a Replicator straight into an Applier, as a standby site
// applies what arrives, without copying the frame on the way.
type applyPipe struct{ ap *Applier }

func (p applyPipe) Ship(frame []byte, snapshot bool) (uint64, bool, error) {
	ack, err := p.ap.Apply(frame, snapshot)
	return ack, false, err
}

// TestReplicatorTickAllocIndependentOfDirSize: a Tick's allocation does not
// grow with the leader directory it re-reads. A live store with full-state
// bodies is ticked into an Applier; the bytes one Append+Tick allocates over
// a 120-record directory are within one record of those over the 70-record
// one that rotation prunes it to, because the scan reads into the buffer
// the Replicator keeps and only the fresh record is copied out of it.
func TestReplicatorTickAllocIndependentOfDirSize(t *testing.T) {
	const bodyLen = 4600 // a B4 full-state record
	leaderDir := t.TempDir()
	leader, err := Open(leaderDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	standby, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer standby.Close()
	r, err := NewReplicator(leaderDir, ReplicatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.AddTarget("standby", applyPipe{NewApplier(standby, ApplierOptions{})})

	bodies := make([][]byte, 140)
	for i := range bodies {
		bodies[i] = bytes.Repeat([]byte{byte('a' + i%26)}, bodyLen)
	}
	var seq uint64
	// op journals and ships the next epoch and returns the bytes it
	// allocated.
	op := func() uint64 {
		seq++
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := leader.Append(seq, bodies[seq]); err != nil {
			t.Fatal(err)
		}
		if err := r.Tick(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := standby.LastSeq(); got != seq {
			t.Fatalf("standby at seq %d after shipping %d", got, seq)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	// least is the fewest bytes any of n ops allocated. The noise is
	// one-sided: an op that grows the kept buffer to a size the directory
	// has not reached before, or that refills a sync.Pool the runtime
	// emptied, only adds bytes.
	least := func(n int) uint64 {
		m := op()
		for i := 1; i < n; i++ {
			m = min(m, op())
		}
		return m
	}
	// At the default cadence of 64 the journal based at 0 holds records
	// 1..64 and the next one 65..128.
	for seq < 115 {
		op()
	}
	long := least(5) // the directory holds records 1..120

	// The Append of 129 starts the journal based at 128 and prunes the one
	// based at 0.
	for seq < 129 {
		op()
	}
	short := least(5) // the directory holds records 65..134

	t.Logf("bytes per Append+Tick: %d over a 120-record directory, %d over a 70-record one", long, short)
	diff := int64(long) - int64(short)
	if diff < 0 {
		diff = -diff
	}
	if record := int64(recordHeaderLen + seqLen + bodyLen); diff >= record {
		t.Fatalf("an Append+Tick allocates %d B over a 120-record directory and %d B over a 70-record one: "+
			"they differ by %d B, at least one %d B record", long, short, diff, record)
	}
}

// gatePipe is a standby that refuses every frame while closed; once open it
// validates, records and acks each frame.
type gatePipe struct {
	t       *testing.T
	open    bool
	shipped []record
}

func (p *gatePipe) Ship(frame []byte, snapshot bool) (uint64, bool, error) {
	if !p.open {
		return 0, false, errors.New("gatePipe: closed")
	}
	seq, body, err := DecodeReplFrame(frame)
	if err != nil {
		p.t.Errorf("shipped frame failed validation: %v", err)
		return 0, true, nil
	}
	p.shipped = append(p.shipped, record{seq: seq, body: append([]byte(nil), body...)})
	return seq, false, nil
}

// TestReplicatorBufferedRecordsOwnTheirBytes: records buffered for a target
// that refuses them do not alias the scan buffer the next Tick overwrites.
// While the target refuses, the leader appends, rotates and prunes, and a
// closed journal shrinks, so the directory the scan buffer holds shrinks and
// shifts. After every Tick the kept-buffer scan must hold exactly what a
// fresh scan holds, so nothing is parsed from bytes an earlier read left
// behind. Once the target accepts, every shipped frame must decode to the
// leader's body for its seq.
func TestReplicatorBufferedRecordsOwnTheirBytes(t *testing.T) {
	fs := newMemFS(-1)
	st, err := Open("state", Options{CompactEvery: 3, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := obs.NewRegistry()
	r, err := NewReplicator("state", ReplicatorOptions{FS: readOnlyFS{t: t, inner: fs}, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	pipe := &gatePipe{t: t}
	r.AddTarget("standby", pipe)

	// Bodies of different lengths, so a shifted frame never lines up with
	// another record's.
	body := func(e uint64) []byte {
		return append([]byte(fmt.Sprintf("epoch %d:", e)), bytes.Repeat([]byte{byte('a' + e)}, int(40+29*(e%7)))...)
	}
	tick := func() {
		t.Helper()
		if err := r.Tick(); err != nil {
			t.Fatal(err)
		}
		var fresh dirScan
		if _, _, err := scanDir(fs, "state", &fresh); err != nil {
			t.Fatal(err)
		}
		if len(r.scan.recs) != len(fresh.recs) {
			t.Fatalf("the kept-buffer scan parsed %d records, a fresh scan %d", len(r.scan.recs), len(fresh.recs))
		}
		for i, rec := range r.scan.recs {
			if rec.seq != fresh.recs[i].seq || !bytes.Equal(rec.frame, fresh.recs[i].frame) {
				t.Fatalf("record %d of the kept-buffer scan is seq %d, of a fresh scan seq %d", i, rec.seq, fresh.recs[i].seq)
			}
		}
	}

	const epochs = 14
	for e := uint64(1); e <= epochs; e++ {
		if err := st.Append(e, body(e)); err != nil {
			t.Fatal(err)
		}
		tick()
	}
	// The closed journal based at 9 loses its last record, 12, which the
	// replicator has already read: the file shrinks, the recovered state
	// (epoch 14, in the newest journal) does not change.
	closed := "state/" + journalName(9, st.Generation())
	img, ok := fs.files[closed]
	if !ok {
		t.Fatalf("no closed journal %s", closed)
	}
	fs.files[closed] = img[:len(img)-len(appendRecord(nil, 12, body(12)))]
	tick()
	if got := reg.Counter("persist.repl.tailed").Value(); got != epochs {
		t.Fatalf("tailed %d records, want %d", got, epochs)
	}
	if len(pipe.shipped) != 0 {
		t.Fatalf("the closed target took %d frames", len(pipe.shipped))
	}

	pipe.open = true
	tick()
	if len(pipe.shipped) != epochs {
		t.Fatalf("shipped %d frames once the target accepted, want %d", len(pipe.shipped), epochs)
	}
	for i, rec := range pipe.shipped {
		if rec.seq != uint64(i+1) || !bytes.Equal(rec.body, body(rec.seq)) {
			t.Fatalf("frame %d shipped seq %d body %q, want seq %d body %q", i, rec.seq, rec.body, i+1, body(uint64(i+1)))
		}
	}
	rec, err := recoverDir(fs, "state")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seq != epochs || !bytes.Equal(rec.Payload, body(epochs)) {
		t.Fatalf("recovered seq %d, want %d", rec.Seq, epochs)
	}
}
