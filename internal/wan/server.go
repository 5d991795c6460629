package wan

import (
	"errors"
	"fmt"
	"net"
	"sync"
)

// server is the one loopback listener behind every wan endpoint
// (SwitchAgent, LeaseServer, SiteServer): it accepts JSON-over-TCP
// connections and answers each Request with handle's Response. An endpoint
// dies with its listener, so closing it models the process behind it
// crashing or being partitioned away.
type server struct {
	handle func(*Request) *Response
	ln     net.Listener

	connMu sync.Mutex
	conns  map[*conn]struct{}

	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once
}

// newServer starts serving handle on a fresh loopback port. handle runs on
// one goroutine per connection and must be safe for concurrent use.
func newServer(handle func(*Request) *Response) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("wan: listen: %w", err)
	}
	s := &server{
		handle: handle,
		ln:     ln,
		conns:  make(map[*conn]struct{}),
		closed: make(chan struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the endpoint's listen address.
func (s *server) Addr() string { return s.ln.Addr().String() }

// Close stops the endpoint and waits for its handlers: the listener and
// every live connection are severed, so serve goroutines blocked mid-read
// unwind instead of pinning Close forever (a restart must not depend on the
// peer hanging up first). Close is idempotent, so test helpers can register
// it with t.Cleanup while tests also close explicitly.
func (s *server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.closed)
		err = s.ln.Close()
		s.connMu.Lock()
		for c := range s.conns {
			c.close()
		}
		s.connMu.Unlock()
		s.wg.Wait()
	})
	return err
}

// track registers a live connection for shutdown; it returns false when the
// server is already closing and the connection should be dropped.
func (s *server) track(c *conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	select {
	case <-s.closed:
		return false
	default:
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *server) untrack(c *conn) {
	s.connMu.Lock()
	delete(s.conns, c)
	s.connMu.Unlock()
}

func (s *server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		cn := newConn(c)
		if !s.track(cn) {
			cn.close()
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(cn)
			s.serve(cn)
		}()
	}
}

func (s *server) serve(c *conn) {
	defer c.close()
	for {
		var req Request
		if err := c.readRequest(&req); err != nil {
			return
		}
		if err := c.writeResponse(s.handle(&req)); err != nil {
			return
		}
	}
}
