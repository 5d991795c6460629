package wan

import (
	"fmt"
	"sync"
)

// LogicalClock is the time source leases run on: a counter advanced
// explicitly by the harness (SiteSet advances it once per Tick), because
// failover decisions must replay bit-identically from a seed and so may
// never read the wall clock. Two runs that perform the same tick sequence
// observe the same times, which is what keeps lease expiries — and
// therefore elections and promotions — byte-identical in the failover
// matrix. Safe for concurrent use.
type LogicalClock struct {
	mu sync.Mutex
	t  uint64
}

// NewLogicalClock returns a clock at time 0.
func NewLogicalClock() *LogicalClock { return &LogicalClock{} }

// Now returns the current logical time.
func (c *LogicalClock) Now() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the clock forward n ticks and returns the new time.
func (c *LogicalClock) Advance(n uint64) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t += n
	return c.t
}

// Lease is a time-bounded leadership grant as seen from one standby: the
// leader renews it on every successful heartbeat, and the standby may claim
// leadership only once it has expired. This replaces counting consecutive
// heartbeat misses — a miss streak says nothing about *time*, and the
// recovery bound this repo holds itself to (promotion inside one TE period)
// is a time bound. The lease also remembers the highest leader generation
// it ever observed, which is the promotion fence floor: a claimant opens
// its own directory with generation > Gen so the zombie's RPCs lose at
// every agent.
//
// A fresh lease starts with one full duration of grace, so a standby that
// has never reached its leader does not instantly promote at boot. Safe
// for concurrent use.
type Lease struct {
	clock    *LogicalClock
	duration uint64

	mu     sync.Mutex
	expiry uint64
	gen    uint64
}

// NewLease returns a lease on clock that expires duration ticks after its
// last renewal, initially granted one full duration from now.
func NewLease(clock *LogicalClock, duration uint64) *Lease {
	return &Lease{clock: clock, duration: duration, expiry: clock.Now() + duration}
}

// Renew extends the lease to now + duration and records the leader
// generation observed on the renewing heartbeat, returning the new expiry.
func (l *Lease) Renew(gen uint64) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.expiry = l.clock.Now() + l.duration
	if gen > l.gen {
		l.gen = gen
	}
	return l.expiry
}

// Expired reports whether the lease has lapsed: the standby has not heard a
// renewal for a full duration, and claiming leadership is now permitted.
func (l *Lease) Expired() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.clock.Now() >= l.expiry
}

// Remaining returns expiry minus now (negative once expired).
func (l *Lease) Remaining() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int64(l.expiry) - int64(l.clock.Now())
}

// Gen returns the highest leader generation observed on any renewal (0
// before the first renewal that carried one).
func (l *Lease) Gen() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gen
}

// LeaseServer is the leader-liveness endpoint of a replicated controller:
// a loopback listener speaking the existing JSON request/response protocol,
// answering MsgPing with the leader's current fence generation. Standby
// sites heartbeat it through any wan.Transport — which is exactly what
// makes the election seam fault-injectable: wrapping a site's heartbeat
// transport with fault.Transport drops or partitions heartbeats
// deterministically, and killing the leader process is modeled by closing
// the server (Close is idempotent), so a kill -9 takes the lease down with
// it.
type LeaseServer struct {
	*server
}

// NewLeaseServer starts a lease endpoint on a fresh loopback port. gen is
// polled on every heartbeat (pass Controller.Generation); it must be safe
// for concurrent use.
func NewLeaseServer(gen func() uint64) (*LeaseServer, error) {
	srv, err := newServer(func(req *Request) *Response {
		if req.Type != MsgPing {
			return &Response{Err: fmt.Sprintf("lease: unsupported message %q", req.Type)}
		}
		return &Response{OK: true, Gen: gen()}
	})
	if err != nil {
		return nil, err
	}
	return &LeaseServer{srv}, nil
}
