package persist

import (
	"fmt"
	"io"
	"os"
	"slices"
	"syscall"
)

// osFS is the production FS: real files, flock-based locking, real fsyncs.
type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// flockCloser releases the advisory lock by closing the lock file (the
// kernel drops flock state with the descriptor, including on kill -9).
type flockCloser struct{ f *os.File }

func (c flockCloser) Close() error { return c.f.Close() }

func (osFS) Lock(name string) (io.Closer, error) {
	f, err := os.OpenFile(name, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		if err == syscall.EWOULDBLOCK || err == syscall.EAGAIN {
			return nil, fmt.Errorf("%s: %w", name, errWouldBlock)
		}
		return nil, err
	}
	return flockCloser{f}, nil
}

func (osFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

func (osFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
}

func (osFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }
func (osFS) Remove(name string) error             { return os.Remove(name) }

// AppendFile grows buf once to the size the file reports plus one byte, as
// os.ReadFile sizes its buffer, so a read into a buffer that is already big
// enough allocates no bytes for the contents and the probe for EOF never
// forces a grow. A file that grows while it is read is read to its end.
func (osFS) AppendFile(buf []byte, name string) ([]byte, error) {
	f, err := os.Open(name)
	if err != nil {
		return buf, err
	}
	defer f.Close()
	n := len(buf)
	if fi, err := f.Stat(); err == nil {
		buf = slices.Grow(buf, int(fi.Size())+1)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		m, err := f.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+m]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf[:n], err
		}
	}
}

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
