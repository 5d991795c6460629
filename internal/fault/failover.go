package fault

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// This file holds the storage-corruption half of the failover matrix: the
// deterministic mutations a standby site's state directory can suffer
// between its last applied record and its takeover. They operate on real
// directories (the failover scenarios run controllers against the OS
// filesystem) and are exact — no randomness — so a corrupted-recovery
// trace replays bit-identically.
//
// The persist on-disk journal names are part of its documented layout
// (journal-<base>-<gen>, zero-padded hex, so lexicographic order is numeric
// order); the helpers match on that prefix rather than reaching into the
// persist package's internals.

// journalFiles lists dir's journals in name (= numeric) order, ignoring
// everything else (LOCK, gen, *.tmp debris).
func journalFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("fault: scan state dir: %w", err)
	}
	var journals []string
	for _, e := range ents {
		name := e.Name()
		if strings.HasPrefix(name, "journal-") && !strings.HasSuffix(name, ".tmp") {
			journals = append(journals, name)
		}
	}
	return journals, nil
}

// TornJournalTail truncates the newest journal in dir by n bytes — the
// classic torn write: the process died after the filesystem shortened its
// final append. Records are packed back to back, so any n in (0, size of
// the last record) leaves a checksum-failing torn tail that recovery and
// journal tailing must both stop before. It fails rather than guess if dir
// holds no journal or n would amputate the whole file.
func TornJournalTail(dir string, n int) error {
	if n <= 0 {
		return fmt.Errorf("fault: torn tail of %d bytes", n)
	}
	journals, err := journalFiles(dir)
	if err != nil {
		return err
	}
	if len(journals) == 0 {
		return fmt.Errorf("fault: no journal to tear in %s", dir)
	}
	path := filepath.Join(dir, journals[len(journals)-1])
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	if int64(n) >= fi.Size() {
		return fmt.Errorf("fault: tearing %d bytes would empty %s (%d bytes)", n, path, fi.Size())
	}
	return os.Truncate(path, fi.Size()-int64(n))
}

// WipeStateMagic overwrites the 8-byte magic header of every journal in
// dir — total storage corruption that keeps the file names (so
// the persist generation counter, which also reads journal names, stays
// monotone and fencing survives). Recovery over a wiped directory is a
// cold start: every record is behind an invalid header and none may be
// trusted.
func WipeStateMagic(dir string) error {
	journals, err := journalFiles(dir)
	if err != nil {
		return err
	}
	if len(journals) == 0 {
		return fmt.Errorf("fault: no journals to wipe in %s", dir)
	}
	for _, name := range journals {
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_WRONLY, 0)
		if err != nil {
			return err
		}
		_, werr := f.WriteAt([]byte("DEADBEEF"), 0)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("fault: wipe %s: %w", name, werr)
		}
	}
	return nil
}
