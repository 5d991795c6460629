package persist

import (
	"cmp"
	"errors"
	"fmt"
	iofs "io/fs"
	"slices"
	"sync"

	"prete/internal/obs"
)

// This file is the cross-site replication engine: a leader-side Replicator
// that reads its own state directory under recovery's rules and ships
// CRC-framed records to remote standbys, and a standby-side Applier that
// validates each frame and applies it into the standby's *own* local Store.
// The wire frame is byte-identical to the on-disk record framing (length,
// CRC-32C, seq-prefixed payload), so a frame that survives the network
// survives the disk and vice versa — one checksum contract end to end.
//
// Delivery is at-least-once over an unreliable transport; the Applier makes
// it exactly-once by sequence: duplicates (seq <= last applied) are
// acknowledged without effect, and gaps (seq > last+1) are refused with
// ErrGap so the shipper falls back to a re-sync. Because every journal
// record carries the full epoch state, a re-sync is simply the newest record
// shipped with the snapshot flag, which means "this frame may skip
// sequences": the standby appends it past the hole and resumes
// record-by-record from there. Every frame goes through the standby's
// Store.Append, so the standby rotates on the same CompactEvery cadence as
// the leader and its directory stays as bounded.
//
// The Replicator keeps exact accounting with the invariant
//
//	shipped = acked + inflight + resent
//
// checked by tests and mirrored into the persist.repl.* metric series.
// Neither side spawns goroutines: shipping is driven by Tick and applying by
// the caller's server loop, which keeps the whole pipeline deterministic
// under the seeded fault schedules.

// ErrBadFrame reports a replication frame that failed validation: torn,
// truncated, trailing garbage, or a checksum mismatch. The receiver should
// answer with a re-sync request — the stream cannot be trusted mid-record.
var ErrBadFrame = errors.New("persist: replication frame failed validation")

// ErrGap reports a replication frame whose sequence skips ahead of the
// standby's contiguous prefix. Applying it would hide the hole forever, so
// the Applier refuses and the shipper must re-sync with the newest record.
var ErrGap = errors.New("persist: replication sequence gap")

// EncodeReplFrame frames (seq, body) for the wire exactly as a journal
// record is framed on disk: 4-byte little-endian payload length, 4-byte
// CRC-32C, then payload = seq || body.
func EncodeReplFrame(seq uint64, body []byte) []byte {
	return appendRecord(nil, seq, body)
}

// DecodeReplFrame validates one wire frame and returns its sequence and
// body. The frame must contain exactly one valid record — a torn head,
// checksum failure, or trailing bytes yield ErrBadFrame.
func DecodeReplFrame(frame []byte) (seq uint64, body []byte, err error) {
	rec, rest, ok := readRecord(frame)
	if !ok || len(rest) != 0 {
		return 0, nil, ErrBadFrame
	}
	return rec.seq, rec.body, nil
}

// ApplierStats is an Applier's state as its callers see it.
type ApplierStats struct {
	// LastSeq is the standby's contiguous applied prefix.
	LastSeq uint64
}

// ApplierOptions tunes an Applier.
type ApplierOptions struct {
	// Metrics, when non-nil, receives the standby-side persist.repl.* series,
	// one count per Apply call that did not fail on the local store: applied
	// (record frames appended), snapshot_applies (re-sync frames appended
	// past a hole), dups (frames at or below the prefix, acked without
	// effect), gaps (record frames that skip ahead) and bad_frames (frames
	// that failed validation). Write-only.
	Metrics *obs.Registry
}

// Applier applies replication frames into a standby's local Store. It owns
// the dedup/gap policy, not the store: the store only sees monotone
// appends. The caller owns the Store's lifecycle.
type Applier struct {
	st      *Store
	metrics *obs.Registry

	mu    sync.Mutex
	stats ApplierStats
}

// NewApplier wraps st, seeding the applied prefix from the store's durable
// state so a restarted standby dedups correctly from its first frame.
func NewApplier(st *Store, opt ApplierOptions) *Applier {
	a := &Applier{st: st, metrics: opt.Metrics}
	a.stats.LastSeq = st.LastSeq()
	return a
}

// Stats returns the applier's applied prefix.
func (a *Applier) Stats() ApplierStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// Apply validates one replication frame and applies it to the local store,
// returning the standby's contiguous applied prefix afterwards. A snapshot
// frame (a re-sync) may skip sequences; a record frame must extend the
// prefix by exactly one. Duplicates return nil without effect. ErrBadFrame
// and ErrGap mean the caller should request a re-sync; any other error is a
// local store failure.
func (a *Applier) Apply(frame []byte, snapshot bool) (uint64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	seq, body, err := DecodeReplFrame(frame)
	if err != nil {
		a.metrics.Counter("persist.repl.bad_frames").Inc()
		return a.stats.LastSeq, err
	}
	switch {
	case seq <= a.stats.LastSeq:
		// At-least-once delivery: the shipper may not have seen our earlier
		// ack. Acking again is free and keeps the stream moving.
		a.metrics.Counter("persist.repl.dups").Inc()
		return a.stats.LastSeq, nil
	case !snapshot && seq != a.stats.LastSeq+1:
		a.metrics.Counter("persist.repl.gaps").Inc()
		return a.stats.LastSeq, fmt.Errorf("persist: apply seq %d after %d: %w", seq, a.stats.LastSeq, ErrGap)
	}
	if err := a.st.Append(seq, body); err != nil {
		return a.stats.LastSeq, fmt.Errorf("persist: apply %d: %w", seq, err)
	}
	if snapshot {
		a.metrics.Counter("persist.repl.snapshot_applies").Inc()
	} else {
		a.metrics.Counter("persist.repl.applied").Inc()
	}
	a.stats.LastSeq = seq
	return a.stats.LastSeq, nil
}

// Pipe is one shipping lane to a standby. Ship delivers a frame and returns
// the standby's contiguous applied prefix plus whether it wants a re-sync
// (gap or corruption on its side). snapshot marks a re-sync frame, which may
// skip sequences. A non-nil error means the frame's fate is unknown
// (transport failure) and the shipper must retry.
type Pipe interface {
	Ship(frame []byte, snapshot bool) (acked uint64, resync bool, err error)
}

// ReplStats is a Replicator's cumulative accounting across all targets. The
// invariant shipped == acked + inflight + resent holds at every instant:
// each ship attempt is counted shipped and inflight when it starts, and
// moves to exactly one of acked or resent when it resolves.
type ReplStats struct {
	// Shipped counts ship attempts started (records and re-syncs).
	Shipped int64
	// Acked counts attempts the target acknowledged at or above the shipped
	// sequence.
	Acked int64
	// Resent counts attempts that did not stick — transport failure,
	// rejection, or a re-sync request — and will be retried in some form.
	Resent int64
	// Inflight counts attempts started but not yet resolved (zero whenever
	// no Tick is executing).
	Inflight int64
	// TailDeadFiles is the number of leader files the latest Tick's scan
	// found without a valid magic — files neither recovery nor shipping can
	// read — so the shipping side can alarm on its own directory going bad.
	TailDeadFiles int64
}

// ReplicatorOptions tunes a Replicator.
type ReplicatorOptions struct {
	// RetainRecords caps the records buffered for record-by-record catch-up;
	// <= 0 selects the default of 64. A target whose ack falls behind the
	// buffer is caught up with a re-sync instead — bounding leader
	// memory no matter how far a standby lags.
	RetainRecords int
	// FS substitutes the filesystem the leader directory is read through;
	// nil selects the operating system. The Replicator only calls ReadDir
	// and AppendFile on it, appending into one buffer it keeps across Ticks.
	FS FS
	// Metrics, when non-nil, receives the leader-side persist.repl.* series
	// (shipped, acked, resent, inflight, resyncs: re-syncs that
	// caught a target back up, tailed: records read from the leader's own
	// directory). Write-only.
	Metrics *obs.Registry
}

// replTarget is one standby's shipping state.
type replTarget struct {
	name         string
	pipe         Pipe
	acked        uint64
	needSnapshot bool
}

// Replicator ships a leader's journal to remote standbys. On every Tick it
// re-reads the leader's state directory with the scan recovery uses —
// read-only and lock-free, so it can watch a live Store without perturbing
// it — into one scan buffer it keeps across Ticks, so a Tick at steady state
// allocates only for the records it has not seen. It copies the on-disk frame
// of each record above its high-water mark out of that buffer and pushes each
// target forward: pending records in sequence order, or a re-sync (the
// newest record, flagged to skip sequences) when the target is behind the
// buffer, reports a gap, or receives a corrupt frame. Each frame is shipped
// as it was read from disk, since the wire framing is the disk framing. What
// a standby applies is therefore by construction what the leader would
// recover. All shipping is synchronous inside Tick — the Replicator owns no
// goroutines.
type Replicator struct {
	dir     string
	fs      FS
	retain  int
	metrics *obs.Registry

	mu      sync.Mutex
	scan    dirScan  // the latest Tick's read, reused by the next
	last    uint64   // high-water mark: the highest seq read so far
	records []record // buffered, ascending seq, frames owned
	targets []*replTarget
	stats   ReplStats
	closed  bool
}

// NewReplicator reads dir (the leader's own state directory) for shipping.
// The directory may not exist yet; shipping starts once it appears.
func NewReplicator(dir string, opt ReplicatorOptions) (*Replicator, error) {
	if dir == "" {
		return nil, fmt.Errorf("persist: new replicator: empty directory")
	}
	fs := opt.FS
	if fs == nil {
		fs = osFS{}
	}
	retain := opt.RetainRecords
	if retain <= 0 {
		retain = 64
	}
	return &Replicator{dir: dir, fs: fs, retain: retain, metrics: opt.Metrics}, nil
}

// AddTarget registers a standby to ship to, starting from ack 0 (the first
// Tick re-syncs it if the buffer no longer reaches back that far). Targets
// are shipped in registration order, which keeps multi-site runs
// deterministic.
func (r *Replicator) AddTarget(name string, pipe Pipe) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.targets = append(r.targets, &replTarget{name: name, pipe: pipe})
}

// RemoveTarget stops shipping to name (a promoted or decommissioned site).
func (r *Replicator) RemoveTarget(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, t := range r.targets {
		if t.name == name {
			r.targets = append(r.targets[:i], r.targets[i+1:]...)
			return
		}
	}
}

// Stats returns the replicator's cumulative accounting.
func (r *Replicator) Stats() ReplStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Tick reads the leader directory for new records and pushes every target
// as far forward as the transport allows. Per-target delivery failures are
// accounted (resent) but do not fail the Tick; only a read error does.
func (r *Replicator) Tick() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("persist: tick on closed replicator")
	}
	_, dead, err := scanDir(r.fs, r.dir, &r.scan)
	if err != nil && !errors.Is(err, iofs.ErrNotExist) {
		return err // a missing directory is one not created yet: nothing to ship
	}
	r.stats.TailDeadFiles = int64(dead)
	n := len(r.records)
	r.records = above(r.records, r.scan.recs, r.last)
	if fresh := r.records[n:]; len(fresh) > 0 {
		r.last = fresh[len(fresh)-1].seq
		r.metrics.Counter("persist.repl.tailed").Add(int64(len(fresh)))
	}
	r.pruneLocked()
	for _, t := range r.targets {
		r.shipToLocked(t)
	}
	r.pruneLocked()
	return nil
}

// above appends to dst the records of recs (in scan order) with a sequence
// above hwm, one per sequence, ascending, each with its whole frame copied
// out of the scan buffer recs aliases, which the next scan overwrites. Of two
// records at one sequence the later-scanned wins, as in recovery, so the
// newest record appended is the one Recover returns.
func above(dst, recs []record, hwm uint64) []record {
	n := len(dst)
	for _, rec := range recs {
		if rec.seq > hwm {
			dst = append(dst, rec)
		}
	}
	fresh := dst[n:]
	slices.SortStableFunc(fresh, func(a, b record) int { return cmp.Compare(a.seq, b.seq) })
	for i, rec := range fresh {
		if i+1 < len(fresh) && fresh[i+1].seq == rec.seq {
			continue
		}
		rec.frame = append([]byte(nil), rec.frame...)
		rec.body = rec.frame[recordHeaderLen+seqLen:]
		dst[n] = rec
		n++
	}
	clear(dst[n:])
	return dst[:n]
}

// pruneLocked drops buffered records every target has acked and caps the
// buffer to the newest retain records; at least one record is always kept so
// a re-sync has something to ship.
func (r *Replicator) pruneLocked() {
	if len(r.records) == 0 {
		return
	}
	minAcked := ^uint64(0)
	for _, t := range r.targets {
		if t.acked < minAcked {
			minAcked = t.acked
		}
	}
	if len(r.targets) == 0 {
		minAcked = 0
	}
	i := 0
	for i < len(r.records)-1 && r.records[i].seq <= minAcked {
		i++
	}
	if over := len(r.records) - i - r.retain; over > 0 {
		i += over
	}
	if i > 0 {
		n := copy(r.records, r.records[i:])
		clear(r.records[n:])
		r.records = r.records[:n]
	}
}

// shipToLocked pushes one target as far forward as possible: a re-sync
// when needed, then pending records in order, stopping at the first
// unresolved failure (retried next Tick).
func (r *Replicator) shipToLocked(t *replTarget) {
	for {
		if len(r.records) == 0 {
			return
		}
		newest := r.records[len(r.records)-1]
		if t.acked >= newest.seq && !t.needSnapshot {
			return
		}
		// A target behind the buffer can't be walked forward record by
		// record — the hole is already pruned — so catch it up wholesale.
		behindBuffer := t.acked+1 < r.records[0].seq
		if t.needSnapshot || behindBuffer {
			acked, resync, err := r.shipFrame(t, newest, true)
			if err != nil || resync || acked < newest.seq {
				return // unresolved or refused; retry next Tick
			}
			t.acked = acked
			t.needSnapshot = false
			r.metrics.Counter("persist.repl.resyncs").Inc()
			continue
		}
		next, ok := r.recordAfterLocked(t.acked)
		if !ok {
			return
		}
		acked, resync, err := r.shipFrame(t, next, false)
		switch {
		case err != nil:
			return
		case resync:
			t.needSnapshot = true
			continue // re-sync immediately, same Tick
		case acked >= next.seq:
			t.acked = acked
		default:
			return // target refused without explanation; retry next Tick
		}
	}
}

// recordAfterLocked returns the first buffered record with Seq > acked.
func (r *Replicator) recordAfterLocked(acked uint64) (record, bool) {
	for _, rec := range r.records {
		if rec.seq > acked {
			return rec, true
		}
	}
	return record{}, false
}

// shipFrame performs one accounted ship attempt of rec's on-disk frame.
// Exactly one of acked or resent is incremented per attempt, keeping
// shipped = acked + inflight + resent exact.
func (r *Replicator) shipFrame(t *replTarget, rec record, snapshot bool) (acked uint64, resync bool, err error) {
	r.stats.Shipped++
	r.stats.Inflight++
	r.metrics.Counter("persist.repl.shipped").Inc()
	r.metrics.Gauge("persist.repl.inflight").Set(float64(r.stats.Inflight))
	acked, resync, err = t.pipe.Ship(rec.frame, snapshot)
	r.stats.Inflight--
	r.metrics.Gauge("persist.repl.inflight").Set(float64(r.stats.Inflight))
	if err == nil && !resync && acked >= rec.seq {
		r.stats.Acked++
		r.metrics.Counter("persist.repl.acked").Inc()
	} else {
		r.stats.Resent++
		r.metrics.Counter("persist.repl.resent").Inc()
	}
	return acked, resync, err
}

// Close stops the replicator; subsequent Ticks fail. It holds no locks or
// open files, so Close releases nothing. Idempotent.
func (r *Replicator) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	return nil
}
