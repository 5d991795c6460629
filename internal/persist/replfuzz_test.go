package persist

import (
	"errors"
	"testing"

	"prete/internal/obs"
)

// replOp encodes one fuzzed ship into the script format FuzzReplicationStream
// consumes: a 3-byte header (flags, seq, body length) followed by the body.
// flags bit 0 corrupts one frame byte, bit 1 truncates the frame (a torn or
// mid-snapshot-truncated delivery), bit 2 ships it as a snapshot.
func replOp(flags, seq, n byte, body ...byte) []byte {
	out := []byte{flags, seq, n}
	return append(out, body...)
}

// FuzzReplicationStream pins the standby's apply path against arbitrary
// replication streams: torn frames, corrupt CRCs, duplicated and reordered
// sequences, truncated snapshots, in any interleaving. Invariants:
//
//   - Apply never panics and the applied prefix never moves backwards.
//   - A failed Apply (bad frame, gap, store error) never moves the prefix.
//   - Every Apply lands in exactly one persist.repl.* counter.
//   - No matter what garbage arrived, one valid snapshot above the prefix
//     always re-syncs the standby — corruption can never wedge it.
//   - The prefix is durable: a reopened store resumes at the same sequence.
func FuzzReplicationStream(f *testing.F) {
	// Clean in-order stream.
	f.Add(append(append(replOp(0, 1, 3, 'a', 'b', 'c'), replOp(0, 2, 1, 'd')...), replOp(0, 3, 0)...))
	// Torn frame, then the completed retry.
	f.Add(append(replOp(2, 1, 4, 'a', 'b', 'c', 'd'), replOp(0, 1, 2, 'a', 'b')...))
	// Corrupt CRC, then the snapshot re-sync the nack would trigger.
	f.Add(append(replOp(1, 1, 3, 'x', 'y', 'z'), replOp(4, 5, 2, 's', 't')...))
	// Duplicated and reordered sequences.
	f.Add(append(append(append(replOp(0, 2, 1, 'b'), replOp(0, 1, 1, 'a')...), replOp(0, 2, 1, 'b')...), replOp(0, 3, 1, 'c')...))
	// Snapshot truncated mid-delivery, then delivered whole.
	f.Add(append(replOp(6, 4, 4, 'w', 'x', 'y', 'z'), replOp(4, 4, 4, 'w', 'x', 'y', 'z')...))

	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 1<<16 {
			t.Skip("oversized input")
		}
		dir := t.TempDir()
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		reg := obs.NewRegistry()
		ap := NewApplier(st, ApplierOptions{Metrics: reg})

		calls := int64(0)
		for len(script) >= 3 {
			flags, seqB, n := script[0], script[1], int(script[2])
			script = script[3:]
			if n > len(script) {
				n = len(script)
			}
			body := script[:n]
			script = script[n:]
			frame := EncodeReplFrame(uint64(seqB), body)
			if flags&1 != 0 {
				frame[int(seqB)%len(frame)] ^= 0xFF
			}
			if flags&2 != 0 {
				frame = frame[:len(frame)*int(seqB%8)/8]
			}
			snapshot := flags&4 != 0

			prev := ap.Stats().LastSeq
			ack, err := ap.Apply(frame, snapshot)
			calls++
			if ack < prev {
				t.Fatalf("applied prefix moved backwards: %d -> %d", prev, ack)
			}
			if err != nil && ack != prev {
				t.Fatalf("failed apply (%v) moved the prefix %d -> %d", err, prev, ack)
			}
			if err != nil && !errors.Is(err, ErrBadFrame) && !errors.Is(err, ErrGap) {
				t.Fatalf("apply error outside the protocol: %v", err)
			}
			var counted int64
			for _, name := range []string{"applied", "snapshot_applies", "dups", "gaps", "bad_frames"} {
				counted += reg.Counter("persist.repl." + name).Value()
			}
			if counted != calls {
				t.Fatalf("persist.repl.* counts %d of %d calls", counted, calls)
			}
			if s := ap.Stats(); s.LastSeq != ack {
				t.Fatalf("stats prefix %d != returned prefix %d", s.LastSeq, ack)
			}
		}

		// Recoverability: however mangled the stream was, a valid snapshot
		// above the prefix must land.
		final := ap.Stats().LastSeq + 1
		ack, err := ap.Apply(EncodeReplFrame(final, []byte(`{"epoch":1}`)), true)
		if err != nil || ack != final {
			t.Fatalf("final snapshot re-sync: (%d, %v), want (%d, nil)", ack, err, final)
		}

		// Durability: the prefix survives a close/reopen.
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st2, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer st2.Close()
		if got := NewApplier(st2, ApplierOptions{}).Stats().LastSeq; got != final {
			t.Fatalf("reopened prefix = %d, want %d", got, final)
		}
	})
}
