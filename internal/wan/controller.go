package wan

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"prete/internal/obs"
	"prete/internal/persist"
	"prete/internal/scenario"
	"prete/internal/stats"
)

// ErrControllerHalted marks an RPC failure caused by the controller process
// itself dying (the fault injector's crash-restart mode raises it). Unlike
// a flaky link it is not retried — a dead process sends nothing — and the
// degradation ladder does not fall back: the round is aborted and recovery
// happens through OpenState on the next incarnation.
var ErrControllerHalted = errors.New("wan: controller halted")

// ErrStale marks an RPC refused by an agent's generation fence: this
// controller incarnation has been superseded by a newer one (or lost an
// equal-generation claimant tie-break). It is typed so promotion logic can
// distinguish "I lost the claim and must step down" from ordinary fleet
// trouble.
var ErrStale = errors.New("wan: fenced by a newer controller generation")

// RetryPolicy bounds the controller's per-RPC retry loop: up to MaxAttempts
// tries per request, waiting a capped exponential backoff between attempts.
// Jitter is the fraction of each backoff randomized away (0 = fixed waits,
// 1 = anywhere in [0, backoff]); the jitter stream is seeded, so sleep
// durations — like everything else in a chaos run — replay from a seed.
type RetryPolicy struct {
	MaxAttempts int
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	Jitter      float64
}

// DefaultRetryPolicy matches the testbed's loopback latencies: four
// attempts, 5 ms initial backoff doubling to a 200 ms cap, half jittered.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseBackoff: 5 * time.Millisecond, MaxBackoff: 200 * time.Millisecond, Jitter: 0.5}
}

// backoff returns the wait before retry number retry (1-based).
func (p RetryPolicy) backoff(retry int, rng *stats.RNG) time.Duration {
	d := p.BaseBackoff
	if d <= 0 {
		d = time.Millisecond
	}
	for i := 1; i < retry; i++ {
		d *= 2
		if p.MaxBackoff > 0 && d >= p.MaxBackoff {
			d = p.MaxBackoff
			break
		}
	}
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	if p.Jitter > 0 && rng != nil {
		// Subtract up to Jitter*d: full-jitter-style spreading that never
		// waits longer than the deterministic schedule.
		d -= time.Duration(p.Jitter * rng.Float64() * float64(d))
	}
	return d
}

// rpcTimeout bounds one RPC attempt (not the whole retry loop).
const rpcTimeout = 10 * time.Second

// Controller is the centralized TE controller: it holds persistent
// connections to every switch agent, installs tunnels serially across the
// fleet, and pushes rate-adaptation updates. RPCs that fail at the
// transport level are retried under Retry with capped exponential backoff;
// a request the fleet ultimately cannot absorb is surfaced as an error and
// the degradation ladder (UpdateRatesWithFallback, Testbed.RunScenario)
// falls back to the last good plan instead of wedging.
type Controller struct {
	conns map[string]Conn // by switch name
	names []string        // switch names, sorted: the order of every fleet-wide sweep
	// Retry is the per-RPC retry/backoff policy.
	Retry RetryPolicy
	// Metrics, when non-nil, receives per-RPC counters (wan.rpc.count,
	// wan.rpc.errors, wan.rpc.retries, wan.rpc.giveups, wan.rpc.<type>),
	// the wan.rpc.latency and wan.rpc.backoff timers, the rate push's
	// wan.rates.{entries_sent,resyncs}, and the wan.fallback.* series. The
	// instrumentation is write-only; protocol behaviour is unchanged.
	Metrics *obs.Registry
	// Log, when non-nil, records the ordered control-plane event sequence
	// (RPC outcomes, retries, fallbacks) without wall-clock values, so
	// seeded chaos runs can be diffed for bit-identical replay.
	Log *EventLog

	// LeaderID, when non-empty, names this controller incarnation in every
	// fenced RPC (Request.Leader). Cross-site promotion sets it so agents can
	// tie-break two claimants that fenced to the same generation; set it
	// before the first RPC.
	LeaderID string

	rng *stats.RNG // backoff jitter stream

	mu        sync.Mutex
	lastRates *rateTable // last table pushed fleet-wide without error
	// acks is, per agent, the table it last acknowledged or, after a warm
	// restart, is presumed to hold (absent = unknown).
	acks      map[string]*rateTable
	store     *persist.Store // nil unless OpenState attached one
	gen       uint64         // fence value stamped into RPCs (0 = unfenced)
	epoch     uint64         // completed (journaled or recovered) epochs
	lastProbs []float64      // probability vector of the last journaled epoch
	// lastFP is the scenario-set fingerprint of the last journaled (or
	// recovered) epoch; 0 when none was recorded.
	lastFP scenario.Fingerprint
}

// NewController dials the given agents (name -> address) over TCP.
func NewController(agents map[string]string) (*Controller, error) {
	return NewControllerTransport(TCPTransport{}, agents)
}

// NewControllerTransport dials the agents through tr (the fault-injection
// tests and the -faults testbed flag pass a fault.Transport here). Agents
// are dialed in sorted name order so any per-dial side effects replay
// deterministically.
func NewControllerTransport(tr Transport, agents map[string]string) (*Controller, error) {
	c := &Controller{
		conns: make(map[string]Conn, len(agents)),
		names: make([]string, 0, len(agents)),
		acks:  make(map[string]*rateTable, len(agents)),
		Retry: DefaultRetryPolicy(),
		rng:   stats.NewRNG(0x77a11c0de),
	}
	for name := range agents {
		c.names = append(c.names, name)
	}
	sort.Strings(c.names)
	for _, name := range c.names {
		cn, err := tr.Dial(name, agents[name])
		if err != nil {
			c.Close()
			return nil, err
		}
		c.conns[name] = cn
	}
	return c, nil
}

// Close tears down all connections and releases the state store (and with
// it the state-directory lock), if one is attached. The store is never
// flushed on Close — every journaled epoch is already durable — so closing
// is equivalent to a crash as far as the next incarnation's recovery is
// concerned.
func (c *Controller) Close() error {
	var first error
	for _, cn := range c.conns {
		if err := cn.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := c.ReleaseState(); err != nil && first == nil {
		first = err
	}
	return first
}

// ReleaseState detaches and closes the state store without touching the
// controller's connections or in-memory fence state — the model of a
// leader whose storage lease was revoked out from under it (or whose
// process was killed, with the flock dying with it) while the process
// itself keeps running. The released controller keeps stamping its old
// generation, so once a standby site claims leadership under a higher
// generation, every surviving RPC from this zombie is fenced by the
// agents as Stale. Journaling becomes a no-op. Safe with no store
// attached; not undoable — attach state to a fresh controller instead.
func (c *Controller) ReleaseState() error {
	c.mu.Lock()
	st := c.store
	c.store = nil
	c.mu.Unlock()
	if st == nil {
		return nil
	}
	return st.Close()
}

// rpcCounters holds each message type's wan.rpc.<type> counter name, built
// once so counting an RPC concatenates nothing.
var rpcCounters = func() map[MsgType]string {
	m := make(map[MsgType]string)
	for _, t := range []MsgType{MsgInstallTunnel, MsgRemoveTunnel, MsgUpdateRates, MsgPing, MsgReplRecord, MsgReplSnapshot} {
		m[t] = "wan.rpc." + string(t)
	}
	return m
}()

func rpcCounter(t MsgType) string {
	if name, ok := rpcCounters[t]; ok {
		return name
	}
	return "wan.rpc." + string(t)
}

// rpc wraps a connection round trip with the controller's retry loop and
// RPC metrics. Transport-level failures are retried up to
// Retry.MaxAttempts with capped exponential backoff; application-level
// rejections (the switch parsed and refused the request) return
// immediately, since retrying identical content cannot succeed. A failed RPC
// forgets which rate table the agent holds (a lost response may hide an
// applied push), so the next push to it is full.
func (c *Controller) rpc(name string, cn Conn, req *Request) (resp *Response, err error) {
	defer func() {
		if err != nil {
			c.setAck(name, nil)
		}
	}()
	pol := c.Retry
	if pol.MaxAttempts < 1 {
		pol.MaxAttempts = 1
	}
	req.Gen = c.Generation() // 0 without a state store: the legacy encoding
	if req.Gen > 0 {
		req.Leader = c.LeaderID
	}
	for attempt := 1; ; attempt++ {
		t := c.Metrics.Timer("wan.rpc.latency")
		start := t.Start()
		resp, err := cn.RoundTrip(req, rpcTimeout)
		t.Stop(start)
		c.Metrics.Counter("wan.rpc.count").Inc()
		c.Metrics.Counter(rpcCounter(req.Type)).Inc()
		if err == nil {
			c.logRPC(name, req.Type, "ok", 0)
			return resp, nil
		}
		c.Metrics.Counter("wan.rpc.errors").Inc()
		if errors.Is(err, ErrControllerHalted) {
			// The process "died" mid-request: no retries, no fallback — the
			// round is over and the next incarnation recovers from disk.
			c.Metrics.Counter("wan.rpc.halted").Inc()
			c.logRPC(name, req.Type, "halted", 0)
			return nil, fmt.Errorf("wan: %s %s: %w", name, req.Type, ErrControllerHalted)
		}
		if resp != nil {
			if resp.Stale {
				// Fenced by the agent: this incarnation is superseded.
				c.Metrics.Counter("wan.recovery.fence_rejections").Inc()
				c.logRPC(name, req.Type, "fenced", 0)
				return resp, fmt.Errorf("wan: %s %s fenced to gen %d: %w", name, req.Type, resp.Gen, ErrStale)
			}
			c.logRPC(name, req.Type, "rejected", 0)
			return resp, err
		}
		if attempt >= pol.MaxAttempts {
			c.Metrics.Counter("wan.rpc.giveups").Inc()
			c.logRPC(name, req.Type, "giveup", attempt)
			return nil, fmt.Errorf("wan: %s %s failed after %d attempts: %w", name, req.Type, attempt, err)
		}
		c.Metrics.Counter("wan.rpc.retries").Inc()
		c.logRPC(name, req.Type, "retry", attempt)
		wait := pol.backoff(attempt, c.rng)
		bt := c.Metrics.Timer("wan.rpc.backoff")
		bstart := bt.Start()
		time.Sleep(wait)
		bt.Stop(bstart)
	}
}

// logRPC records one RPC outcome, with its attempt number when attempt > 0.
// Its arguments are typed, so an RPC without a Log boxes nothing for it.
func (c *Controller) logRPC(name string, t MsgType, outcome string, attempt int) {
	if c.Log == nil {
		return
	}
	if attempt > 0 {
		c.Log.Addf("rpc %s %s %s attempt=%d", name, t, outcome, attempt)
		return
	}
	c.Log.Addf("rpc %s %s %s", name, t, outcome)
}

// Ping round-trips every agent (connectivity check) in name order.
func (c *Controller) Ping() error {
	for _, name := range c.names {
		if _, err := c.rpc(name, c.conns[name], &Request{Type: MsgPing}); err != nil {
			return fmt.Errorf("wan: ping %s: %w", name, err)
		}
	}
	return nil
}

// TunnelInstall describes one tunnel to program on one switch.
type TunnelInstall struct {
	Switch   string
	TunnelID int
	Path     []int
}

// InstallTunnels programs the given tunnels one at a time — the serialized
// production behaviour of §5 — and returns the total wall time (Fig 11b's
// y-axis). Tunnel installation is idempotent on the agent (re-programming
// an ID overwrites it), so retried deliveries are harmless.
func (c *Controller) InstallTunnels(installs []TunnelInstall) (time.Duration, error) {
	start := time.Now()
	for _, ins := range installs {
		cn, ok := c.conns[ins.Switch]
		if !ok {
			return time.Since(start), fmt.Errorf("wan: unknown switch %q", ins.Switch)
		}
		if _, err := c.rpc(ins.Switch, cn, &Request{
			Type: MsgInstallTunnel, TunnelID: ins.TunnelID, Path: ins.Path,
		}); err != nil {
			return time.Since(start), err
		}
	}
	return time.Since(start), nil
}

// rateTable is one immutable rate table and its content tag. lastRates and
// every peer's ack share a single copy of each acknowledged table.
type rateTable struct {
	rates map[string]float64
	tag   uint64

	// The rates' JSON encoding, marshaled on the first journal record that
	// carries the table and spliced into every later one.
	jsonOnce sync.Once
	json     []byte
	jsonErr  error
}

// encoded returns json.Marshal(t.rates), computed once per table.
func (t *rateTable) encoded() ([]byte, error) {
	t.jsonOnce.Do(func() { t.json, t.jsonErr = json.Marshal(t.rates) })
	return t.json, t.jsonErr
}

// entries returns the table's map (nil for no table); callers must not
// modify it.
func (t *rateTable) entries() map[string]float64 {
	if t == nil {
		return nil
	}
	return t.rates
}

// rateTag is Request.Tag for a table: the sum of one FNV-1a hash per
// (name, value bits) entry, so it does not depend on map order, folded with
// the entry count. It is never 0, which on the wire means "no tag".
func rateTag(rates map[string]float64) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	var sum uint64
	for k, v := range rates {
		h := uint64(offset)
		for i := 0; i < len(k); i++ {
			h = (h ^ uint64(k[i])) * prime
		}
		bits := math.Float64bits(v)
		for i := 0; i < 64; i += 8 {
			h = (h ^ ((bits >> i) & 0xff)) * prime
		}
		sum += h
	}
	tag := (uint64(offset) ^ sum) * prime
	tag = (tag ^ uint64(len(rates))) * prime
	if tag == 0 {
		tag = 1
	}
	return tag
}

// sameRates reports whether two tables hold the same entries, bit for bit.
func sameRates(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || math.Float64bits(w) != math.Float64bits(v) {
			return false
		}
	}
	return true
}

// rateDelta is the entries of next that base lacks or holds with other
// bits: what an agent holding base needs to hold next (nil when none).
func rateDelta(base, next *rateTable) map[string]float64 {
	var d map[string]float64
	for k, v := range next.rates {
		if w, ok := base.rates[k]; ok && math.Float64bits(w) == math.Float64bits(v) {
			continue
		}
		if d == nil {
			d = make(map[string]float64)
		}
		d[k] = v
	}
	return d
}

// ackedBy returns the table name last acknowledged (nil = unknown).
func (c *Controller) ackedBy(name string) *rateTable {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.acks[name]
}

// setAck records (t non-nil) or forgets (t nil) the table name holds.
func (c *Controller) setAck(name string, t *rateTable) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t == nil {
		delete(c.acks, name)
		return
	}
	c.acks[name] = t
}

// UpdateRates pushes a rate-adaptation table to every switch ("only
// requires updating match-action entries at few switches", §2.1) and
// returns the wall time. Each agent gets the delta against the table it
// last acknowledged: only the entries added or changed since, none for an
// unchanged table (a heartbeat), and the full table when its table is
// unknown — the first push of a fresh controller, or after a failed RPC.
// A warm restart presumes every agent holds the recovered table, so its
// re-assert is a heartbeat. An agent that cannot place a delta (it holds
// another table) answers Resync and gets the full table in the same call.
// On full success the table is remembered as the fleet's last good plan
// (LastGoodRates). A table with a negative or non-finite rate is refused
// before any RPC: the journal could not recover it.
func (c *Controller) UpdateRates(rates map[string]float64) (time.Duration, error) {
	start := time.Now()
	next, err := c.rateTableOf(rates)
	if err != nil {
		return time.Since(start), err
	}
	type cut struct {
		base  *rateTable
		delta map[string]float64
	}
	var cuts []cut // one delta per distinct acknowledged table
	full := Request{Type: MsgUpdateRates, Rates: next.rates, Tag: next.tag}
	for _, n := range c.names {
		req := full
		if base := c.ackedBy(n); base != nil {
			i := 0
			for i < len(cuts) && cuts[i].base != base {
				i++
			}
			if i == len(cuts) {
				cuts = append(cuts, cut{base, rateDelta(base, next)})
			}
			req.Base, req.Rates = base.tag, cuts[i].delta
		}
		c.Metrics.Counter("wan.rates.entries_sent").Add(int64(len(req.Rates)))
		resp, err := c.rpc(n, c.conns[n], &req)
		if err != nil && resp != nil && resp.Resync {
			c.Metrics.Counter("wan.rates.resyncs").Inc()
			c.Metrics.Counter("wan.rates.entries_sent").Add(int64(len(full.Rates)))
			req = full
			_, err = c.rpc(n, c.conns[n], &req)
		}
		if err != nil {
			return time.Since(start), err
		}
		c.setAck(n, next)
	}
	c.mu.Lock()
	c.lastRates = next
	c.mu.Unlock()
	return time.Since(start), nil
}

// UpdateRatesWithFallback pushes a rate table and, when the round cannot
// complete even after per-RPC retries, degrades gracefully instead of
// wedging: the failure is recorded (wan.fallback.rounds), and the last good
// table — the previous installed plan — is best-effort re-asserted so
// agents that accepted the partial update converge back to a consistent
// fleet-wide state. Agents are never left rate-less: a failed update leaves
// each agent's previously installed table in place. The returned flag
// reports whether the round fell back; err carries the original failure for
// diagnostics (a fallen-back round is not fatal to the §5 pipeline).
func (c *Controller) UpdateRatesWithFallback(rates map[string]float64) (time.Duration, bool, error) {
	d, err := c.UpdateRates(rates)
	if err == nil {
		return d, false, nil
	}
	if errors.Is(err, ErrControllerHalted) {
		// A dead controller cannot re-assert anything: surface the halt so
		// the caller aborts the round (recovery is the next incarnation's
		// OpenState, not a fallback push).
		return d, false, err
	}
	c.Metrics.Counter("wan.fallback.rounds").Inc()
	c.Log.Addf("fallback rates")
	if last := c.LastGoodRates(); last != nil {
		t := c.Metrics.Timer("wan.fallback.restore")
		start := t.Start()
		if _, rerr := c.UpdateRates(last); rerr != nil {
			// Even the restore failed; agents keep whatever table they
			// have (old or new), which still routes traffic.
			c.Metrics.Counter("wan.fallback.restore_errors").Inc()
			c.Log.Addf("fallback restore failed")
		} else {
			c.Metrics.Counter("wan.fallback.restores").Inc()
			c.Log.Addf("fallback restored last good")
		}
		t.Stop(start)
	}
	return d, true, err
}

// LastGoodRates returns a copy of the most recent rate table that was
// pushed to every agent without error, or nil if none has succeeded yet.
func (c *Controller) LastGoodRates() map[string]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return copyRates(c.lastRates.entries())
}

// rateTableOf returns the immutable table for rates: the last good table
// itself when rates equals it (the quiet epoch's case, and a restore),
// otherwise a fresh copy, which must hold only finite, non-negative rates.
func (c *Controller) rateTableOf(rates map[string]float64) (*rateTable, error) {
	c.mu.Lock()
	last := c.lastRates
	c.mu.Unlock()
	if last != nil && sameRates(last.rates, rates) {
		return last, nil
	}
	cp := make(map[string]float64, len(rates))
	for k, v := range rates {
		if !(v >= 0) || math.IsInf(v, 1) {
			return nil, fmt.Errorf("wan: rate %s=%v is negative or not finite", k, v)
		}
		cp[k] = v
	}
	return &rateTable{rates: cp, tag: rateTag(cp)}, nil
}

// RemoveTunnels deletes tunnels (the §4.2 restoration to the original
// state after a quiet TE period).
func (c *Controller) RemoveTunnels(installs []TunnelInstall) error {
	for _, ins := range installs {
		cn, ok := c.conns[ins.Switch]
		if !ok {
			return fmt.Errorf("wan: unknown switch %q", ins.Switch)
		}
		if _, err := c.rpc(ins.Switch, cn, &Request{Type: MsgRemoveTunnel, TunnelID: ins.TunnelID}); err != nil {
			return err
		}
	}
	return nil
}
