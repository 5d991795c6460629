// Package persist is the controller's crash-safe state store: an
// append-only, CRC-checksummed journal of per-epoch records, rotated on a
// configurable cadence, with single-opener locking and a monotonic
// generation counter for split-brain fencing.
//
// Every record is the full state at its epoch (recovery returns the newest
// record alone), so the journal is the store: there is no second copy of
// the state to take. The write API is Append. The Append that brings a
// journal to Options.CompactEvery records closes it, and starting the next
// journal deletes the journals that the previous one supersedes, so a
// directory holds at most 2×CompactEvery records however often it
// restarts. A leader and a standby that applies the leader's records
// rotate on one cadence and are bounded alike.
//
// The design goals, in the order they matter:
//
//   - Crash safety. Every mutation is either fully visible after a restart
//     or invisible: journal records are length-prefixed and checksummed, so
//     a torn tail (kill -9 mid-write) is detected and discarded; the
//     generation counter is written temp-file + fsync + atomic rename, so a
//     crashed writer never damages the previous copy.
//
//   - Corruption-tolerant recovery. Recover scans every journal in the
//     directory, validates record by record, and returns the
//     highest-sequence state whose checksum holds — never a torn record,
//     never a reordered one. A directory with no valid state yields the
//     typed ErrNoState, never a panic (persist.FuzzRecover pins this over
//     arbitrary bytes).
//
//   - One reader. Recovery and the Replicator read a state directory through
//     one scan under one rule set, so what a standby applies is by
//     construction what the leader would recover (persist.FuzzTail pins
//     this). The Replicator's read takes no lock and never writes, so it can
//     watch a live Store without perturbing it. The scan appends every file
//     into a buffer its caller owns: recovery reads into a fresh one, the
//     Replicator into one it keeps across Ticks, copying out only the frames
//     of records it has not read before, so a Tick's allocation does not grow
//     with the directory.
//
//   - Single opener. Open takes an OS-level advisory lock (flock) on the
//     directory; a second opener fails fast with a typed *LockError instead
//     of interleaving journal writes. The lock dies with the process, so a
//     kill -9 never wedges the directory.
//
//   - Fencing. Every successful Open durably increments a generation
//     counter. The controller stamps the generation into its RPCs and agents
//     reject installs from an older generation, so a zombie incarnation that
//     lost the directory race (or kept running past a restart) cannot
//     overwrite the fleet's state.
//
//   - Dependency-free and deterministic. Only the standard library and the
//     repo's own obs registry; identical append sequences produce
//     byte-identical files (modulo the generation suffix in journal names),
//     which the chaos replay tests build on.
//
// Layout of a state directory:
//
//	LOCK                       flock target (contents irrelevant)
//	gen                        generation counter (one framed record)
//	journal-<base>-<gen>       records with seq > <base>, one per epoch,
//	                           written by generation <gen>
//
// File format: an 8-byte magic ("PRST\x00\x01\r\n") followed by framed
// records. Each record is a 4-byte little-endian payload length, a 4-byte
// CRC-32C (Castagnoli) of the payload, and the payload itself; the payload
// starts with the 8-byte little-endian epoch sequence number. The store
// fsyncs the journal after every append and fsyncs the directory after
// creating a journal, so an Append that returned nil is durable.
package persist

import (
	"errors"
	"fmt"
	"io"

	"prete/internal/obs"
)

// ErrNoState is returned by recovery when the directory holds no record
// that passes its checksum — a fresh directory, or one damaged beyond the
// newest-valid-prefix contract. Callers treat it as "cold start".
var ErrNoState = errors.New("persist: no recoverable state")

// LockError reports that the state directory is already held by a live
// store (another controller incarnation). It is a typed error so callers
// can fail fast instead of retrying into a split brain.
type LockError struct {
	Dir string
}

// Error implements error.
func (e *LockError) Error() string {
	return fmt.Sprintf("persist: state dir %s is locked by another store", e.Dir)
}

// errWouldBlock is the FS-neutral signal that a lock is held elsewhere;
// Open wraps it into *LockError.
var errWouldBlock = errors.New("persist: lock held")

// File is the store's handle on one writable file. The crash-point tests
// substitute a budgeted implementation that dies mid-write at any byte
// offset, which is how the "recovery yields a prefix of committed epochs"
// contract is exercised exhaustively.
type File interface {
	io.Writer
	// Sync durably flushes everything written so far; an Append only
	// reports success after Sync returns nil.
	Sync() error
	Close() error
}

// FS abstracts the filesystem the store runs on. The default implementation
// uses the OS; tests inject in-memory or fault-injecting implementations to
// simulate crashes at byte granularity without touching a disk.
type FS interface {
	MkdirAll(dir string) error
	// Lock acquires the single-opener lock file, failing with errWouldBlock
	// (wrapped) when another live store holds it. The returned closer
	// releases the lock.
	Lock(name string) (io.Closer, error)
	// OpenAppend opens name for appending, creating it if absent.
	OpenAppend(name string) (File, error)
	// Create opens name truncated (temp files for atomic replace).
	Create(name string) (File, error)
	Rename(oldname, newname string) error
	Remove(name string) error
	// AppendFile appends the contents of name to buf and returns the
	// extended slice, so a caller that reads repeatedly can reuse one
	// buffer (a nil buf reads into a fresh one). On error it returns buf
	// unextended.
	AppendFile(buf []byte, name string) ([]byte, error)
	// ReadDir returns the file names (not paths) in dir.
	ReadDir(dir string) ([]string, error)
	// SyncDir fsyncs the directory so renames and creations are durable.
	SyncDir(dir string) error
}

// Options tunes a Store.
type Options struct {
	// CompactEvery is the journal length (records) at which Append closes
	// the journal; the next Append starts a new one; <= 0 selects the
	// default of 64. It is the cadence, not a hint: no journal ever holds
	// more than CompactEvery records.
	CompactEvery int
	// Metrics, when non-nil, receives the persist.* series (appends, bytes,
	// pruned journals, recovery counters and timers). Write-only.
	Metrics *obs.Registry
	// FS substitutes the filesystem; nil selects the operating system.
	FS FS
	// MinGeneration, when non-zero, is a floor on the generation this Open
	// claims: the claimed generation is at least MinGeneration even if the
	// directory's own counter is far behind. Cross-site promotion uses this
	// to fence a zombie leader whose directory the promoting standby cannot
	// see — the standby opens its *own* replica directory with MinGeneration
	// set above the last leader generation it observed, so its RPCs outrank
	// the zombie's at every agent.
	MinGeneration uint64
}

func (o Options) withDefaults() Options {
	if o.CompactEvery <= 0 {
		o.CompactEvery = 64
	}
	if o.FS == nil {
		o.FS = osFS{}
	}
	return o
}
