package fault

import (
	"fmt"
	"sync"
	"time"

	"prete/internal/obs"
	"prete/internal/stats"
	"prete/internal/wan"
)

// Halt is the error a CtlCrash transport returns once the controller
// process is "dead". It wraps wan.ErrControllerHalted, so the controller's
// retry loop and the testbed's reaction pipeline recognize it as a process
// death (abort the round, no retries, no fallback) rather than a flaky
// link.
type Halt struct {
	Peer    string
	Attempt int64 // 1-based global RPC attempt number that hit the halt
}

// Error implements error.
func (e *Halt) Error() string {
	return fmt.Sprintf("fault: controller halted at %s (attempt %d)", e.Peer, e.Attempt)
}

// Unwrap makes every Halt match wan.ErrControllerHalted with errors.Is.
func (e *Halt) Unwrap() error { return wan.ErrControllerHalted }

// CtlCrash wraps a wan.Transport and kills the controller process at a
// deterministic point: the first Budget RPC attempts (counted globally
// across peers — the controller is one process) proceed, and every later
// attempt fails with a Halt until the transport is re-armed. Unlike the
// Injector's per-peer agent crashes, a controller crash is total: after the
// trigger no peer is reachable, modeling kill -9 mid-epoch.
//
// The crash point is an explicit attempt count, so it composes with the
// Injector's seeded drop/delay streams without perturbing them: wrap the
// fault.Transport with CtlCrash (crash decision outermost) and the inner
// per-peer decision sequence up to the crash replays bit-identically.
// CrashPoint derives the count from a seed for randomized-but-reproducible
// sweeps.
//
// The same attempt count also times ArmHook's callback, so "promote a
// standby while the leader is mid-epoch" (matrix row F12) is an exact point
// in the leader's RPC sequence and replays bit-identically.
type CtlCrash struct {
	inner   wan.Transport
	metrics *obs.Registry

	mu        sync.Mutex
	remaining int64 // attempts left before the halt; -1 = disarmed
	halted    bool
	attempts  int64
	hookAt    int64  // run hook before this 1-based attempt
	hook      func() // nil = no hook armed (or it already ran)
}

// NewCtlCrash wraps inner, armed to halt on RPC attempt budget+1 (Arm
// semantics). metrics may be nil.
func NewCtlCrash(inner wan.Transport, budget int64, metrics *obs.Registry) *CtlCrash {
	t := &CtlCrash{inner: inner, metrics: metrics}
	t.Arm(budget)
	return t
}

// Arm resets the transport to a live controller that will crash after
// budget more successful attempt starts (budget 0 = the very next attempt
// halts). Call before RestartController to model the restarted process, or
// Disarm for a restart that stays up.
func (t *CtlCrash) Arm(budget int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.remaining = budget
	t.halted = false
}

// Disarm resets the transport to a live controller that never crashes.
func (t *CtlCrash) Disarm() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.remaining = -1
	t.halted = false
}

// ArmHook schedules fn to run exactly once, before global RPC attempt
// number at (1-based) starts — ahead of that attempt's halt decision, and
// outside the transport's lock. Re-arming replaces a hook that has not run.
// Arm and Disarm leave the hook alone.
func (t *CtlCrash) ArmHook(at int64, fn func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.hookAt = at
	t.hook = fn
}

// Halted reports whether the crash has triggered and not been re-armed.
func (t *CtlCrash) Halted() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.halted
}

// Attempts returns the global RPC attempt count (including halted ones).
func (t *CtlCrash) Attempts() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempts
}

// tick consumes one RPC attempt, runs the armed hook if this is its attempt,
// and returns non-nil once the process is dead.
func (t *CtlCrash) tick(peer string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempts++
	attempt := t.attempts
	if fn := t.hook; fn != nil && attempt >= t.hookAt {
		t.hook = nil
		t.mu.Unlock()
		fn()
		t.mu.Lock()
	}
	if t.halted {
		t.metrics.Counter("fault.ctlcrash.refused").Inc()
		return &Halt{Peer: peer, Attempt: attempt}
	}
	if t.remaining < 0 {
		return nil
	}
	if t.remaining == 0 {
		t.halted = true
		t.metrics.Counter("fault.ctlcrash.halts").Inc()
		return &Halt{Peer: peer, Attempt: attempt}
	}
	t.remaining--
	return nil
}

// Dial dials through the inner transport. Dialing itself never halts: a
// restarted controller re-dials through the same (re-armed) transport.
func (t *CtlCrash) Dial(name, addr string) (wan.Conn, error) {
	cn, err := t.inner.Dial(name, addr)
	if err != nil {
		return nil, err
	}
	return &ctlCrashConn{peer: name, inner: cn, t: t}, nil
}

type ctlCrashConn struct {
	peer  string
	inner wan.Conn
	t     *CtlCrash
}

func (c *ctlCrashConn) RoundTrip(req *wan.Request, timeout time.Duration) (*wan.Response, error) {
	if err := c.t.tick(c.peer); err != nil {
		return nil, err
	}
	return c.inner.RoundTrip(req, timeout)
}

func (c *ctlCrashConn) Close() error { return c.inner.Close() }

// CrashPoint draws a crash budget uniformly from [lo, hi] out of the same
// decorrelated seeded stream family the Injector uses, so a chaos
// experiment's crash timing replays from (seed, index) like every other
// fault decision.
func CrashPoint(seed, index uint64, lo, hi int64) int64 {
	if hi < lo {
		hi = lo
	}
	rng := stats.SubRNG(seed, peerIndex("ctlcrash")+index)
	return lo + int64(rng.Float64()*float64(hi-lo+1))
}
