// Package fault is the control plane's deterministic chaos layer: a seeded,
// policy-driven injector that wraps the wan Transport/Conn interfaces and
// perturbs controller<->agent RPCs with drops, delays, duplicated and
// corrupted deliveries, network partitions, and agent crash/restart
// outages.
//
// Determinism is the whole point. Every decision is drawn from a per-peer
// stream derived stats.SubRNG-style from (Spec.Seed, peer name) — never
// from call order across peers — so an identical fault seed plus an
// identical workload replays the exact same fault sequence bit for bit,
// and a chaos failure found in CI reproduces locally from two integers.
// The injector keeps an ordered decision history (History) that the
// determinism tests diff across runs.
//
// The injector models faults at RPC granularity, the level the §5 control
// plane reasons at:
//
//   - Drop: the request vanishes; the controller sees a transport error.
//   - Delay: the delivery waits a bounded, seeded duration, then proceeds.
//   - Duplicate: the request is delivered twice (the agent must be
//     idempotent — tunnel installs and rate updates are).
//   - Corrupt: the request is delivered but the response is lost to bit
//     errors, so state changed agent-side while the controller sees a
//     failure and re-sends — the classic at-least-once hazard.
//   - Partition: the peer becomes unreachable for the next PartitionRPCs
//     attempts (the underlying connection stays up).
//   - Crash: the agent process "dies" — the connection is severed and the
//     peer stays down for CrashRPCs attempts, after which the transport's
//     re-dial path is exercised.
package fault

import (
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"prete/internal/obs"
	"prete/internal/stats"
	"prete/internal/wan"
)

// Kind enumerates injected fault kinds.
type Kind int

// Fault kinds.
const (
	None Kind = iota
	Drop
	Delay
	Duplicate
	Corrupt
	Partition
	Crash
)

// String names the fault kind for logs and metrics.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case Duplicate:
		return "duplicate"
	case Corrupt:
		return "corrupt"
	case Partition:
		return "partition"
	case Crash:
		return "crash"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Spec is a fault policy. All probabilities are per RPC attempt and drawn
// independently in a fixed order (crash, partition, drop, corrupt,
// duplicate, delay — first hit wins); the draw order is part of the
// deterministic replay contract.
type Spec struct {
	// Seed roots every per-peer decision stream.
	Seed uint64
	// Drop is the probability an attempt's request vanishes in flight.
	Drop float64
	// DelayProb delays an attempt by a uniform duration in
	// [DelayMin, DelayMax].
	DelayProb          float64
	DelayMin, DelayMax time.Duration
	// Duplicate delivers the request twice.
	Duplicate float64
	// Corrupt delivers the request but destroys the response.
	Corrupt float64
	// Partition makes the peer unreachable for the next PartitionRPCs
	// attempts (including the triggering one).
	Partition     float64
	PartitionRPCs int
	// Crash severs the peer's connection and keeps it down for CrashRPCs
	// attempts; recovery goes through the transport's re-dial path.
	Crash     float64
	CrashRPCs int
}

// Active reports whether the spec can inject anything.
func (s Spec) Active() bool {
	return s.Drop > 0 || s.DelayProb > 0 || s.Duplicate > 0 || s.Corrupt > 0 ||
		s.Partition > 0 || s.Crash > 0
}

// Validate checks probabilities, durations, and outage lengths.
func (s Spec) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"drop", s.Drop}, {"delay", s.DelayProb}, {"dup", s.Duplicate},
		{"corrupt", s.Corrupt}, {"partition", s.Partition}, {"crash", s.Crash},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("fault: %s probability %v out of [0, 1]", p.name, p.v)
		}
	}
	if s.DelayMin < 0 || s.DelayMax < s.DelayMin {
		return fmt.Errorf("fault: delay range [%v, %v] invalid", s.DelayMin, s.DelayMax)
	}
	if s.PartitionRPCs < 0 || s.CrashRPCs < 0 {
		return fmt.Errorf("fault: negative outage length")
	}
	return nil
}

// Injected is the error surfaced for an RPC attempt consumed by a fault.
type Injected struct {
	Kind Kind
	Peer string
}

// Error implements error.
func (e *Injected) Error() string {
	return fmt.Sprintf("fault: injected %s at %s", e.Kind, e.Peer)
}

// Injector draws fault decisions from decorrelated per-peer streams and
// counts what it injects into an obs registry (fault.injected.<kind>,
// fault.rpcs). Safe for concurrent use.
type Injector struct {
	spec    Spec
	metrics *obs.Registry

	mu      sync.Mutex
	peers   map[string]*peerState
	history []string
}

type peerState struct {
	rng      *stats.RNG
	down     int  // remaining attempts swallowed by the current outage
	downKind Kind // Partition or Crash while down > 0
}

// NewInjector returns an injector for the given (validated) spec. metrics
// may be nil.
func NewInjector(spec Spec, metrics *obs.Registry) (*Injector, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Partition > 0 && spec.PartitionRPCs == 0 {
		spec.PartitionRPCs = 10
	}
	if spec.Crash > 0 && spec.CrashRPCs == 0 {
		spec.CrashRPCs = 25
	}
	return &Injector{spec: spec, metrics: metrics, peers: make(map[string]*peerState)}, nil
}

// decision is one drawn fault for one RPC attempt.
type decision struct {
	kind  Kind
	delay time.Duration
}

// peerIndex maps a peer name to its SubRNG stream index (FNV-1a, so the
// stream depends only on the name, never on dial or call order).
func peerIndex(peer string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(peer))
	return h.Sum64()
}

// decide draws the fault for the next RPC attempt to peer.
func (in *Injector) decide(peer string) decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	ps := in.peers[peer]
	if ps == nil {
		ps = &peerState{rng: stats.SubRNG(in.spec.Seed, peerIndex(peer))}
		in.peers[peer] = ps
	}
	d := in.draw(ps)
	in.record(peer, d)
	return d
}

func (in *Injector) draw(ps *peerState) decision {
	if ps.down > 0 {
		ps.down--
		return decision{kind: ps.downKind}
	}
	r := ps.rng
	s := in.spec
	switch {
	case r.Bernoulli(s.Crash):
		ps.down = s.CrashRPCs - 1
		ps.downKind = Crash
		return decision{kind: Crash}
	case r.Bernoulli(s.Partition):
		ps.down = s.PartitionRPCs - 1
		ps.downKind = Partition
		return decision{kind: Partition}
	case r.Bernoulli(s.Drop):
		return decision{kind: Drop}
	case r.Bernoulli(s.Corrupt):
		return decision{kind: Corrupt}
	case r.Bernoulli(s.Duplicate):
		return decision{kind: Duplicate}
	case r.Bernoulli(s.DelayProb):
		span := float64(s.DelayMax - s.DelayMin)
		return decision{kind: Delay, delay: s.DelayMin + time.Duration(r.Float64()*span)}
	default:
		return decision{kind: None}
	}
}

func (in *Injector) record(peer string, d decision) {
	in.metrics.Counter("fault.rpcs").Inc()
	if d.kind != None {
		in.metrics.Counter("fault.injected." + d.kind.String()).Inc()
	}
	if d.kind == Delay {
		in.history = append(in.history, fmt.Sprintf("%s:delay:%dus", peer, d.delay.Microseconds()))
		return
	}
	in.history = append(in.history, peer+":"+d.kind.String())
}

// History returns the ordered decision record (peer:kind entries, delays
// with their seeded duration). Two runs with the same seed and workload
// produce identical histories — the chaos determinism tests rely on it.
func (in *Injector) History() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]string(nil), in.history...)
}

// Transport wraps an inner wan.Transport with the injector. The inner
// transport's Conns must tolerate Close followed by further RoundTrips
// (wan.TCPTransport re-dials), because crash faults sever the connection.
type Transport struct {
	inner wan.Transport
	inj   *Injector
}

// NewTransport wraps inner with inj.
func NewTransport(inner wan.Transport, inj *Injector) *Transport {
	return &Transport{inner: inner, inj: inj}
}

// Dial dials through the inner transport and wraps the connection.
func (t *Transport) Dial(name, addr string) (wan.Conn, error) {
	cn, err := t.inner.Dial(name, addr)
	if err != nil {
		return nil, err
	}
	return &faultConn{peer: name, inner: cn, inj: t.inj}, nil
}

// faultConn applies one fault decision per RoundTrip attempt.
type faultConn struct {
	peer  string
	inner wan.Conn
	inj   *Injector
}

func (c *faultConn) RoundTrip(req *wan.Request, timeout time.Duration) (*wan.Response, error) {
	d := c.inj.decide(c.peer)
	switch d.kind {
	case Drop, Partition:
		return nil, &Injected{Kind: d.kind, Peer: c.peer}
	case Crash:
		// Sever the stream like a dying agent process would; the peer stays
		// down for the configured outage, then the inner conn re-dials.
		c.inner.Close()
		return nil, &Injected{Kind: Crash, Peer: c.peer}
	case Corrupt:
		if len(req.Frame) > 0 {
			// Replication streams see in-flight bit errors, not lost
			// responses: deliver a flipped copy and let the receiver's CRC —
			// not this injector — be what catches it. The site nacks with a
			// re-sync request and the shipper re-syncs it with the newest
			// record.
			mangled := *req
			mangled.Frame = append([]byte(nil), req.Frame...)
			mangled.Frame[len(mangled.Frame)/2] ^= 0xFF
			return c.inner.RoundTrip(&mangled, timeout)
		}
		// The request lands (agent state changes) but the response is lost
		// to bit errors: the controller sees a transport failure and will
		// re-send, exercising idempotent re-delivery.
		if resp, err := c.inner.RoundTrip(req, timeout); err != nil {
			return resp, err
		}
		return nil, &Injected{Kind: Corrupt, Peer: c.peer}
	case Duplicate:
		if resp, err := c.inner.RoundTrip(req, timeout); err != nil {
			return resp, err
		}
		return c.inner.RoundTrip(req, timeout)
	case Delay:
		time.Sleep(d.delay)
	}
	return c.inner.RoundTrip(req, timeout)
}

func (c *faultConn) Close() error { return c.inner.Close() }
