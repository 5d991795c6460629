package persist

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
)

// Store is an open, locked state directory: an append-only journal of
// per-epoch records, rotated every Options.CompactEvery appends. All
// methods are safe for concurrent use; writes are serialized internally.
type Store struct {
	dir string
	opt Options
	fs  FS

	mu        sync.Mutex
	lock      io.Closer
	journal   File // nil until the first Append after Open or a rotation
	count     int  // records in journal
	lastSeq   uint64
	gen       uint64
	frame     []byte // the last Append's framed record, reused by the next
	recovered *Recovered
	closed    bool
	broken    error // first write failure; the store refuses further writes
}

// Open locks dir (creating it if needed), durably increments the
// generation counter and recovers the newest valid state. The first Append
// starts a fresh journal based at the recovered sequence, so an incarnation
// that journals nothing leaves no file behind. A directory held by another
// live store fails fast with a typed *LockError. The recovered state (nil
// payload on a cold start) is available via Recovered.
func Open(dir string, opt Options) (*Store, error) {
	opt = opt.withDefaults()
	fs := opt.FS
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("persist: mkdir %s: %w", dir, err)
	}
	lock, err := fs.Lock(dir + "/LOCK")
	if err != nil {
		if errors.Is(err, errWouldBlock) {
			return nil, &LockError{Dir: dir}
		}
		return nil, fmt.Errorf("persist: lock %s: %w", dir, err)
	}
	s := &Store{dir: dir, opt: opt, fs: fs, lock: lock}
	if err := s.open(); err != nil {
		lock.Close()
		return nil, err
	}
	return s, nil
}

func (s *Store) open() error {
	m := s.opt.Metrics
	t := m.Timer("persist.recover.time")
	start := t.Start()
	rec, err := recoverDir(s.fs, s.dir)
	t.Stop(start)
	cold := false
	if err != nil {
		if !errors.Is(err, ErrNoState) {
			return err
		}
		cold = true
	}
	s.recovered = rec
	s.lastSeq = rec.Seq
	m.Counter("persist.recover.runs").Inc()
	if cold {
		m.Counter("persist.recover.cold").Inc()
	}
	m.Counter("persist.recover.records_replayed").Add(int64(rec.Stats.RecordsReplayed))
	m.Counter("persist.recover.corrupt_skipped").Add(int64(rec.Stats.CorruptSkipped))

	// The highest generation stamped into any journal name.
	files, err := listDir(s.fs, s.dir)
	if err != nil {
		return err
	}
	var maxJournalGen uint64
	for _, f := range files {
		maxJournalGen = max(maxJournalGen, f.gen)
	}

	// Durably claim the next generation before any other write: a crash
	// after the rename costs one generation number, never uniqueness. The
	// journal-name generations guard the counter file itself: even if it is
	// damaged, the claimed generation stays above every journal already in
	// the directory, so the fresh journal never lands on an old file.
	prev := s.readGen()
	if maxJournalGen > prev {
		prev = maxJournalGen
	}
	s.gen = prev + 1
	if s.gen < s.opt.MinGeneration {
		s.gen = s.opt.MinGeneration
	}
	if err := s.writeGen(s.gen); err != nil {
		return err
	}
	m.Gauge("persist.generation").Set(float64(s.gen))

	// Never append to an inherited journal (its tail may be torn): the first
	// Append starts a fresh one based at the recovered sequence.
	return nil
}

// readGen returns the persisted generation counter, 0 when absent or
// damaged (the counter file is written atomically, so "damaged" means a
// hand-edited directory; uniqueness degrades gracefully to freshness).
func (s *Store) readGen() uint64 {
	b, err := s.fs.AppendFile(nil, s.dir+"/gen")
	if err != nil {
		return 0
	}
	recs, _, _ := scanRecords(b)
	if len(recs) == 0 {
		return 0
	}
	return recs[0].seq
}

// writeGen persists the generation counter via temp + fsync + rename.
func (s *Store) writeGen(gen uint64) error {
	buf := append([]byte(nil), magic...)
	buf = appendRecord(buf, gen, nil)
	if err := s.writeAtomic("gen", buf); err != nil {
		return fmt.Errorf("persist: write generation: %w", err)
	}
	return nil
}

// writeAtomic writes name via a .tmp sibling, fsync, rename, dir fsync.
func (s *Store) writeAtomic(name string, b []byte) error {
	tmp := s.dir + "/" + name + ".tmp"
	f, err := s.fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	t := s.opt.Metrics.Timer("persist.fsync")
	start := t.Start()
	err = f.Sync()
	t.Stop(start)
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := s.fs.Rename(tmp, s.dir+"/"+name); err != nil {
		return err
	}
	return s.fs.SyncDir(s.dir)
}

// startJournal creates the empty journal based at lastSeq, named with this
// incarnation's generation, and then prunes the journals it supersedes.
func (s *Store) startJournal() error {
	name := journalName(s.lastSeq, s.gen)
	f, err := s.fs.OpenAppend(s.dir + "/" + name)
	if err != nil {
		return fmt.Errorf("persist: open journal %s: %w", name, err)
	}
	if _, err := f.Write(magic); err != nil {
		f.Close()
		return fmt.Errorf("persist: journal magic: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("persist: journal sync: %w", err)
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		f.Close()
		return err
	}
	s.journal = f
	s.prune()
	return nil
}

// prune deletes the journals that the one holding the record at lastSeq
// supersedes. A journal's records never pass the base of any journal written
// after it (a later generation, or the same one at a higher base), since a
// store starts each journal at its newest record. So a journal followed by a
// later-written one based below lastSeq holds only older records and goes;
// the journal holding lastSeq, the fallback if a newer record is ever
// damaged, stays, and so does the new one. That leaves at most one closed
// journal of records and the growing one: at most 2×CompactEvery records.
// Judging a journal by what was written after it, not by its neighbour in
// name order, keeps the fallback when a wiped earlier lineage left journals
// based in between. Best-effort: a failed remove only costs disk. The caller
// holds s.mu.
func (s *Store) prune() {
	files, err := listDir(s.fs, s.dir)
	if err != nil {
		return
	}
	slices.SortFunc(files, func(a, b stateFile) int { // newest-written first
		return cmp.Or(cmp.Compare(b.gen, a.gen), cmp.Compare(b.base, a.base))
	})
	later := s.lastSeq // the lowest base written after the journal at hand
	for _, f := range files {
		if later < s.lastSeq && s.fs.Remove(s.dir+"/"+f.name()) == nil {
			s.opt.Metrics.Counter("persist.pruned").Inc()
		}
		later = min(later, f.base)
	}
}

// Recovered returns what Open recovered (Payload nil on a cold start).
// The result is owned by the store; callers must not mutate it.
func (s *Store) Recovered() *Recovered { return s.recovered }

// Generation returns this incarnation's fence value: strictly greater than
// every generation any earlier opener of the directory ever held.
func (s *Store) Generation() uint64 { return s.gen }

// LastSeq returns the highest epoch sequence committed (recovered or
// appended).
func (s *Store) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSeq
}

// Append journals one epoch record and fsyncs it: when Append returns nil
// the record survives kill -9. The record that brings the journal to
// Options.CompactEvery records closes it, and the next Append starts a new
// journal (see prune). Sequences must be strictly increasing but may skip:
// a standby's re-sync appends the leader's newest record. The first write
// failure poisons the store (a partial write leaves the tail torn, which
// recovery handles, but further appends behind it would be unreachable, so
// the store refuses them). An error from closing a full journal leaves the
// record itself durable: LastSeq counts it.
func (s *Store) Append(seq uint64, body []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("persist: append on closed store")
	}
	if s.broken != nil {
		return fmt.Errorf("persist: store broken by earlier write failure: %w", s.broken)
	}
	if seq <= s.lastSeq {
		return fmt.Errorf("persist: append seq %d not after %d", seq, s.lastSeq)
	}
	if s.journal == nil {
		if err := s.startJournal(); err != nil {
			s.broken = err
			return err
		}
	}
	// A File, like any io.Writer, does not retain what it is given, so the
	// next Append may reuse the frame buffer.
	s.frame = appendRecord(s.frame[:0], seq, body)
	if _, err := s.journal.Write(s.frame); err != nil {
		s.broken = err
		return fmt.Errorf("persist: append: %w", err)
	}
	t := s.opt.Metrics.Timer("persist.fsync")
	start := t.Start()
	err := s.journal.Sync()
	t.Stop(start)
	if err != nil {
		s.broken = err
		return fmt.Errorf("persist: append sync: %w", err)
	}
	s.lastSeq = seq
	s.count++
	s.opt.Metrics.Counter("persist.appends").Inc()
	s.opt.Metrics.Counter("persist.append_bytes").Add(int64(len(s.frame)))
	if s.count < s.opt.CompactEvery {
		return nil
	}
	err = s.journal.Close()
	s.journal, s.count = nil, 0
	if err != nil {
		s.broken = err
		return fmt.Errorf("persist: close journal: %w", err)
	}
	return nil
}

// Close releases the journal and the directory lock. Idempotent: a second
// Close is a no-op returning nil, so owners can both defer and explicitly
// close. Close never flushes — every successful write is already durable —
// so closing is equivalent to a crash as far as recovery is concerned.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	if s.journal != nil {
		if err := s.journal.Close(); err != nil && first == nil {
			first = err
		}
		s.journal = nil
	}
	if s.lock != nil {
		if err := s.lock.Close(); err != nil && first == nil {
			first = err
		}
		s.lock = nil
	}
	return first
}
