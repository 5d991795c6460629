package persist

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// memFS is an in-memory FS with an optional byte-granular write budget:
// once the budget is exhausted, every write fails after delivering only the
// bytes that still fit — exactly what a kill -9 mid-write leaves on disk.
// The crash-point table test sweeps the budget across every byte offset of
// a scripted store lifetime.
type memFS struct {
	mu     sync.Mutex
	files  map[string][]byte
	locks  map[string]bool
	budget int64 // bytes writable before the "crash"; < 0 = unlimited
	wrote  int64 // total bytes written (for sizing the sweep)
}

var errMemCrash = fmt.Errorf("memfs: injected crash (write budget exhausted)")

func newMemFS(budget int64) *memFS {
	return &memFS{files: map[string][]byte{}, locks: map[string]bool{}, budget: budget}
}

func (m *memFS) MkdirAll(dir string) error { return nil }

type memLock struct {
	m    *memFS
	name string
}

func (l *memLock) Close() error {
	l.m.mu.Lock()
	defer l.m.mu.Unlock()
	delete(l.m.locks, l.name)
	return nil
}

func (m *memFS) Lock(name string) (io.Closer, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.locks[name] {
		return nil, fmt.Errorf("%s: %w", name, errWouldBlock)
	}
	m.locks[name] = true
	return &memLock{m: m, name: name}, nil
}

type memFile struct {
	m    *memFS
	name string
}

func (f *memFile) Write(p []byte) (int, error) {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	n := len(p)
	crashed := false
	if f.m.budget >= 0 {
		if int64(n) > f.m.budget {
			n = int(f.m.budget)
			crashed = true
		}
		f.m.budget -= int64(n)
	}
	f.m.files[f.name] = append(f.m.files[f.name], p[:n]...)
	f.m.wrote += int64(n)
	if crashed {
		return n, errMemCrash
	}
	return n, nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }

func (m *memFS) OpenAppend(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		m.files[name] = nil
	}
	return &memFile{m: m, name: name}, nil
}

func (m *memFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[name] = nil
	return &memFile{m: m, name: name}, nil
}

func (m *memFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[oldname]
	if !ok {
		return fmt.Errorf("memfs: rename %s: not found", oldname)
	}
	m.files[newname] = b
	delete(m.files, oldname)
	return nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return fmt.Errorf("memfs: remove %s: not found", name)
	}
	delete(m.files, name)
	return nil
}

func (m *memFS) AppendFile(buf []byte, name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[name]
	if !ok {
		return buf, fmt.Errorf("memfs: read %s: not found", name)
	}
	return append(buf, b...), nil
}

func (m *memFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	prefix := dir + "/"
	var names []string
	for name := range m.files {
		if rest, ok := strings.CutPrefix(name, prefix); ok && !strings.Contains(rest, "/") {
			names = append(names, rest)
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *memFS) SyncDir(dir string) error { return nil }
