package wan

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"prete/internal/obs"
	"prete/internal/persist"
)

// This file is the controller's one standby mechanism. Each standby site
// owns its *own* persist directory, fed by a persist.Replicator shipping
// CRC-framed records over wan.Transport (so the whole stream is
// fault-injectable), and leadership is a time-bounded wan.Lease renewed by
// heartbeats. An in-site hot standby is the same thing on loopback: a lease
// of N ticks expires on exactly the tick the N-th consecutive heartbeat miss
// lands. No lock is shared between sites, so the only split-brain defense is
// the agents' generation fence: a promoting site floors its generation above
// the highest leader generation its lease observed
// (persist.Options.MinGeneration), names itself in every fenced RPC, and the
// agents reject both the zombie's older generation and any equal-generation
// sibling claimant. The failover matrix (internal/fault, rows F1-F14) proves
// that defense sufficient under crashes, partitions, corruption, lag, and
// load.

// ErrLeaseValid reports a promotion attempt while the leader's lease is
// still live: claiming now could split the brain purely by impatience, so
// the claim is refused locally before any network traffic.
var ErrLeaseValid = errors.New("wan: leader lease still valid")

// ErrClaimFenced reports a promotion claim that lost at the agents: another
// claimant already fenced the fleet at or above our generation. The site
// steps down and rejoins as a standby.
var ErrClaimFenced = errors.New("wan: promotion claim fenced by a sibling")

// SiteServer is a standby site's replication ingress: a loopback listener
// accepting MsgReplRecord/MsgReplSnapshot frames and handing them to the
// site's apply function, which returns the site's contiguous applied prefix
// and whether it wants a re-sync. Like the other wan endpoints it
// dies with its listener, so closing it models a site partition or crash.
type SiteServer struct {
	*server
}

// NewSiteServer starts a replication ingress on a fresh loopback port.
// apply must be safe for concurrent use.
func NewSiteServer(apply func(frame []byte, snapshot bool) (ack uint64, resync bool, errstr string)) (*SiteServer, error) {
	srv, err := newServer(func(req *Request) *Response {
		if req.Type != MsgReplRecord && req.Type != MsgReplSnapshot {
			return &Response{Err: fmt.Sprintf("site: unsupported message %q", req.Type)}
		}
		ack, resync, errstr := apply(req.Frame, req.Type == MsgReplSnapshot)
		return &Response{OK: errstr == "" && !resync, Err: errstr, Ack: ack, Resync: resync}
	})
	if err != nil {
		return nil, err
	}
	return &SiteServer{srv}, nil
}

// sitePipe adapts one wan.Conn to the persist.Pipe shipping contract.
type sitePipe struct {
	conn    Conn
	timeout time.Duration
}

// Ship delivers one replication frame and interprets the site's answer: a
// nil Response is a transport failure (retryable), Resync asks for a
// re-sync, and any other rejection is surfaced as an error.
func (p sitePipe) Ship(frame []byte, snapshot bool) (uint64, bool, error) {
	typ := MsgReplRecord
	if snapshot {
		typ = MsgReplSnapshot
	}
	resp, err := p.conn.RoundTrip(&Request{Type: typ, Frame: frame}, p.timeout)
	if resp == nil {
		return 0, false, err
	}
	if resp.Resync {
		return resp.Ack, true, nil
	}
	if !resp.OK {
		return resp.Ack, false, fmt.Errorf("wan: site refused frame: %s", resp.Err)
	}
	return resp.Ack, false, nil
}

// SiteOptions tunes a SiteSet.
type SiteOptions struct {
	// Sites is the number of standby sites (site IDs 1..Sites). 0 is a
	// valid, empty set.
	Sites int
	// LeaseTicks is the lease duration in logical-clock ticks; <= 0 selects
	// 3. A site may claim leadership only after going a full lease duration
	// without a successful heartbeat.
	LeaseTicks uint64
	// HeartbeatTimeout bounds one heartbeat round trip; <= 0 selects 500 ms.
	HeartbeatTimeout time.Duration
	// RetainRecords caps the leader-side replication buffer (see
	// persist.ReplicatorOptions); <= 0 selects persist's default.
	RetainRecords int
	// Transport is what a promoted site dials the switch agents through;
	// nil selects TCPTransport.
	Transport Transport
	// Ship supplies the per-site replication-stream transport, dialed under
	// the peer name "repl/<id>" so each stream gets a decorrelated fault
	// stream; nil selects TCPTransport.
	Ship func(id int) Transport
	// Heartbeat supplies the per-site lease transport, dialed under
	// "lease/<id>"; nil selects TCPTransport.
	Heartbeat func(id int) Transport
	// Retry tunes the promoted controller's RPCs (a zero value keeps the
	// wan default).
	Retry RetryPolicy
	// Metrics receives the wan.georep.* series plus the persist.repl.*
	// series of the underlying replicator and appliers.
	Metrics *obs.Registry
	// Log records the ordered, wall-clock-free replication/lease/election
	// events the bit-identical-replay tests diff.
	Log *EventLog
}

func (o SiteOptions) withDefaults() SiteOptions {
	if o.LeaseTicks == 0 {
		o.LeaseTicks = 3
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 500 * time.Millisecond
	}
	if o.Transport == nil {
		o.Transport = TCPTransport{}
	}
	return o
}

// site is one standby: its own persist directory and store, the
// apply path fed by the leader's replicator, a lease renewed by heartbeats,
// and enough bookkeeping to audit a promotion.
type site struct {
	id    int
	dir   string
	srv   *SiteServer
	ship  Conn
	hb    Conn
	lease *Lease

	// Guarded by the owning SiteSet's mu.
	store       *persist.Store
	applier     *persist.Applier
	lastApplied uint64
	takenOver   bool // promotion owns the directory; apply path detached
	missing     bool // currently in a heartbeat-miss streak
	crashed     bool // dead site: no applies, no heartbeats, no claims
	promoted    bool
	resyncs     int64
}

// SiteStatus is a point-in-time snapshot of one site.
type SiteStatus struct {
	// ID is the site id (1-based; the leader is site 0).
	ID int
	// Applied is the site's contiguous applied journal sequence, which is
	// also the epoch it mirrors (0 = nothing applied yet).
	Applied uint64
	// LeaseRemaining is ticks until lease expiry (negative once expired).
	LeaseRemaining int64
	// LeaseGen is the highest leader generation the site's lease observed.
	LeaseGen uint64
	// Resyncs counts re-syncs applied at this site.
	Resyncs int64
}

// SitePromotion is the outcome of a successful takeover.
type SitePromotion struct {
	// SiteID is the site that took over.
	SiteID int
	// Ctl is the promoted controller: fenced above every generation the
	// site's lease observed, state recovered from the site's own replicated
	// directory, agents dialed. Ownership passes to the caller.
	Ctl *Controller
	// MirrorMatch reports that the site recovered exactly the prefix its
	// apply path acknowledged: warm at the last applied epoch, or cold
	// with nothing applied.
	MirrorMatch bool
	// Resyncs is how many re-syncs this site needed over its
	// standby lifetime (lag it had to recover from).
	Resyncs int64
	// Elapsed is the wall time from claim to hand-off complete.
	Elapsed time.Duration
}

// SiteSet manages the standby sites of one controller: per-tick
// replication shipping, lease-renewing heartbeats, and promotion once a
// lease expires. Everything observable is tick-driven on a logical clock
// and seeded, so which site promotes, at what logical time, after how many
// re-syncs replays bit-identically for a fixed schedule and fault seed.
type SiteSet struct {
	agents map[string]string
	opt    SiteOptions
	clock  *LogicalClock
	repl   *persist.Replicator

	mu          sync.Mutex
	sites       []*site
	promoted    bool
	unreachable bool // leader-side partition: skip shipping
	lastDead    int64
}

// NewSiteSet builds opt.Sites standby sites for the leader whose
// state directory is leaderDir and whose lease listens at leaseAddr. Each
// site i owns sitesRoot/site-<i> as its local state directory; agents is
// the switch fleet a promoted site will dial.
func NewSiteSet(leaderDir, sitesRoot, leaseAddr string, agents map[string]string, opt SiteOptions) (*SiteSet, error) {
	if leaderDir == "" || sitesRoot == "" {
		return nil, fmt.Errorf("wan: site set needs leader and site directories")
	}
	opt = opt.withDefaults()
	repl, err := persist.NewReplicator(leaderDir, persist.ReplicatorOptions{
		RetainRecords: opt.RetainRecords,
		Metrics:       opt.Metrics,
	})
	if err != nil {
		return nil, err
	}
	ss := &SiteSet{agents: agents, opt: opt, clock: NewLogicalClock(), repl: repl}
	for id := 1; id <= opt.Sites; id++ {
		if err := ss.addSite(id, sitesRoot, leaseAddr); err != nil {
			ss.Close()
			return nil, err
		}
	}
	return ss, nil
}

func (ss *SiteSet) addSite(id int, sitesRoot, leaseAddr string) error {
	s := &site{id: id, dir: filepath.Join(sitesRoot, fmt.Sprintf("site-%d", id))}
	st, err := persist.Open(s.dir, persist.Options{Metrics: ss.opt.Metrics})
	if err != nil {
		return fmt.Errorf("wan: site %d: open: %w", id, err)
	}
	s.store = st
	s.applier = persist.NewApplier(st, persist.ApplierOptions{Metrics: ss.opt.Metrics})
	srv, err := NewSiteServer(ss.applyFor(s))
	if err != nil {
		st.Close()
		return fmt.Errorf("wan: site %d: %w", id, err)
	}
	s.srv = srv
	shipTr := Transport(TCPTransport{})
	if ss.opt.Ship != nil {
		shipTr = ss.opt.Ship(id)
	}
	ship, err := shipTr.Dial(fmt.Sprintf("repl/%d", id), srv.Addr())
	if err != nil {
		srv.Close()
		st.Close()
		return fmt.Errorf("wan: site %d: dial repl: %w", id, err)
	}
	s.ship = ship
	hbTr := Transport(TCPTransport{})
	if ss.opt.Heartbeat != nil {
		hbTr = ss.opt.Heartbeat(id)
	}
	hb, err := hbTr.Dial(fmt.Sprintf("lease/%d", id), leaseAddr)
	if err != nil {
		ship.Close()
		srv.Close()
		st.Close()
		return fmt.Errorf("wan: site %d: dial lease: %w", id, err)
	}
	s.hb = hb
	s.lease = NewLease(ss.clock, ss.opt.LeaseTicks)
	ss.mu.Lock()
	ss.sites = append(ss.sites, s)
	ss.mu.Unlock()
	ss.repl.AddTarget(fmt.Sprintf("site-%d", id), sitePipe{conn: ship, timeout: ss.opt.HeartbeatTimeout})
	return nil
}

// applyFor builds site s's frame-apply function: validate and apply via the
// site's Applier, advance the site's applied prefix, and translate
// gap/corrupt errors into re-sync requests.
func (ss *SiteSet) applyFor(s *site) func([]byte, bool) (uint64, bool, string) {
	return func(frame []byte, snapshot bool) (uint64, bool, string) {
		ss.mu.Lock()
		ap := s.applier
		taken := s.takenOver
		ss.mu.Unlock()
		if taken || ap == nil {
			return 0, false, fmt.Sprintf("site %d: promotion in progress", s.id)
		}
		ack, err := ap.Apply(frame, snapshot)
		switch {
		case err == nil:
		case errors.Is(err, persist.ErrGap) || errors.Is(err, persist.ErrBadFrame):
			ss.opt.Metrics.Counter("wan.georep.resync_requests").Inc()
			ss.opt.Log.Addf("site %d resync request ack=%d", s.id, ack)
			return ack, true, ""
		default:
			return ack, false, err.Error()
		}
		ss.mu.Lock()
		defer ss.mu.Unlock()
		if ack > s.lastApplied {
			s.lastApplied = ack
			if snapshot {
				s.resyncs++
				ss.opt.Metrics.Counter("wan.georep.site_resyncs").Inc()
				ss.opt.Log.Addf("site %d resynced epoch=%d", s.id, ack)
			} else {
				ss.opt.Log.Addf("site %d mirror epoch=%d", s.id, ack)
			}
		}
		return ack, false, ""
	}
}

// Clock returns the lease clock (tests advance it to force expiries).
func (ss *SiteSet) Clock() *LogicalClock { return ss.clock }

// ReplStats returns the underlying replicator's shipping accounting.
func (ss *SiteSet) ReplStats() persist.ReplStats { return ss.repl.Stats() }

// SetLeaderReachable models the leader side of a partition: while false,
// Tick stops driving the replication stream (the leader cannot reach any
// site), without touching the sites' heartbeats — those are governed by the
// lease endpoint and the per-site heartbeat transports.
func (ss *SiteSet) SetLeaderReachable(ok bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.unreachable = !ok
}

// CrashSite marks a site as dead: the leader stops shipping to it, it stops
// heartbeating, and elections skip it — the failover matrix's
// standby-outage axis.
func (ss *SiteSet) CrashSite(id int) error {
	s := ss.findSite(id)
	if s == nil {
		return fmt.Errorf("wan: no site %d", id)
	}
	ss.mu.Lock()
	s.crashed = true
	ss.mu.Unlock()
	ss.repl.RemoveTarget(fmt.Sprintf("site-%d", id))
	ss.opt.Log.Addf("site %d crashed", id)
	return nil
}

// Status snapshots every site in id order.
func (ss *SiteSet) Status() []SiteStatus {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	out := make([]SiteStatus, 0, len(ss.sites))
	for _, s := range ss.sites {
		out = append(out, SiteStatus{
			ID:             s.id,
			Applied:        s.lastApplied,
			LeaseRemaining: s.lease.Remaining(),
			LeaseGen:       s.lease.Gen(),
			Resyncs:        s.resyncs,
		})
	}
	return out
}

// Tick advances the standby machinery one deterministic step: the
// logical clock moves one tick, the leader ships pending journal records to
// every site, every live standby site heartbeats the lease, and if any
// site's lease has expired the lowest such site claims leadership. Tick
// returns the SitePromotion on success, (nil, nil) while the leader's lease
// holds, and ErrClaimFenced (wrapped) when a claim lost at the agents.
func (ss *SiteSet) Tick() (*SitePromotion, error) {
	now := ss.clock.Advance(1)
	ss.opt.Metrics.Counter("wan.georep.ticks").Inc()
	ss.mu.Lock()
	unreachable := ss.unreachable
	promoted := ss.promoted
	var standbys []*site
	for _, s := range ss.sites {
		if !s.promoted && !s.crashed {
			standbys = append(standbys, s)
		}
	}
	ss.mu.Unlock()
	if !unreachable {
		if err := ss.repl.Tick(); err != nil {
			ss.opt.Metrics.Counter("wan.georep.ship_errors").Inc()
			ss.opt.Log.Addf("repl tick error")
		}
		if dead := ss.repl.Stats().TailDeadFiles; dead > ss.swapDeadFiles(dead) {
			// The leader's own directory has more files without a valid
			// magic than at the last scan: those files hold nothing recovery
			// or shipping can read, so alarm instead of shipping a silent
			// stale prefix forever.
			ss.opt.Metrics.Counter("wan.georep.dead_file_alarms").Inc()
			ss.opt.Log.Addf("repl dead files n=%d", dead)
		}
	}
	for _, s := range standbys {
		ss.heartbeatSite(s)
	}
	if promoted {
		return nil, nil
	}
	for _, s := range standbys {
		if s.lease.Expired() {
			ss.opt.Metrics.Counter("wan.georep.elections").Inc()
			ss.opt.Log.Addf("election site=%d t=%d", s.id, now)
			return ss.Promote(s.id)
		}
	}
	return nil, nil
}

// swapDeadFiles records the latest scan's dead-file count and returns the
// previous one.
func (ss *SiteSet) swapDeadFiles(n int64) int64 {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	prev := ss.lastDead
	ss.lastDead = n
	return prev
}

// heartbeatSite runs one lease renewal probe for site s.
func (ss *SiteSet) heartbeatSite(s *site) {
	ss.opt.Metrics.Counter("wan.georep.heartbeats").Inc()
	resp, err := s.hb.RoundTrip(&Request{Type: MsgPing}, ss.opt.HeartbeatTimeout)
	ok := err == nil && resp != nil && resp.OK
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if !ok {
		ss.opt.Metrics.Counter("wan.georep.misses").Inc()
		ss.opt.Log.Addf("site %d heartbeat miss rem=%d", s.id, s.lease.Remaining())
		s.missing = true
		return
	}
	s.lease.Renew(resp.Gen)
	if s.missing {
		ss.opt.Log.Addf("site %d lease recovered gen=%d", s.id, resp.Gen)
		s.missing = false
	}
}

// findSite returns the site with the given id.
func (ss *SiteSet) findSite(id int) *site {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	for _, s := range ss.sites {
		if s.id == id {
			return s
		}
	}
	return nil
}

// Promote claims leadership for site id. The claim is local-first: the
// lease must have expired (time gate), the site detaches its apply path and
// re-opens its own directory with a generation floored above every leader
// generation its lease observed (a standby opening its own replica
// directory cannot inherit the zombie leader's counter through a shared
// flock, so the floor and the agents' fence do that work), and only then
// does it assert itself at the agents — a fence probe (ping) followed by a
// re-assert of the recovered last-good rates. A claim the agents refuse (a
// sibling already fenced the fleet) steps down: the controller is torn back
// down, the site re-opens as a standby, and ErrClaimFenced is returned.
// There is NO lock between sites — a partitioned sibling can always
// *claim*, concurrently even; the agents rejecting stale and tied
// generations are the sole arbiter, which is exactly what the F5 and F11
// matrix rows prove. Every claimant walks the agents in the same name order
// and stops at its first refusal, so among equal-generation claimants
// whoever reaches the first agent first wins the whole fleet.
func (ss *SiteSet) Promote(id int) (*SitePromotion, error) {
	s := ss.findSite(id)
	if s == nil {
		return nil, fmt.Errorf("wan: no site %d", id)
	}
	ss.mu.Lock()
	promoted, crashed := s.promoted, s.crashed
	ss.mu.Unlock()
	switch {
	case promoted:
		return nil, fmt.Errorf("wan: site %d already leads", id)
	case crashed:
		return nil, fmt.Errorf("wan: site %d is crashed", id)
	}
	if !s.lease.Expired() {
		return nil, fmt.Errorf("wan: site %d: %w", id, ErrLeaseValid)
	}
	start := time.Now()
	minGen := s.lease.Gen() + 1
	resyncs, applied := ss.detachApply(s)

	ctl, err := NewControllerTransport(ss.opt.Transport, ss.agents)
	if err != nil {
		ss.rejoinStandby(s)
		return nil, fmt.Errorf("wan: promote site %d: %w", id, err)
	}
	ctl.Metrics = ss.opt.Metrics
	ctl.Log = ss.opt.Log
	ctl.LeaderID = fmt.Sprintf("site-%d", id)
	if ss.opt.Retry.MaxAttempts > 0 {
		ctl.Retry = ss.opt.Retry
	}
	rec, err := ctl.openState(s.dir, minGen)
	if err != nil {
		ctl.Close()
		ss.rejoinStandby(s)
		return nil, fmt.Errorf("wan: promote site %d: %w", id, err)
	}
	// The audit: a journal record's seq is its EpochState.Epoch, and a
	// CRC-valid record at seq N holds the bytes applied at N, so recovery
	// matches the apply path exactly when it lands on the applied prefix.
	p := &SitePromotion{SiteID: id, Ctl: ctl, Resyncs: resyncs}
	p.MirrorMatch = (rec.Warm && rec.Epoch == applied) || (!rec.Warm && applied == 0)
	if p.MirrorMatch {
		ss.opt.Metrics.Counter("wan.failover.mirror_match").Inc()
	} else {
		ss.opt.Metrics.Counter("wan.failover.mirror_mismatch").Inc()
	}
	ss.opt.Log.Addf("site promotion site=%d gen=%d warm=%v mirror_match=%v",
		id, rec.Generation, rec.Warm, p.MirrorMatch)

	// Fence probe before any state-bearing write: a ping stamped with
	// (gen, leader) either raises the fence fleet-wide or reveals that a
	// sibling already holds it.
	if perr := ctl.Ping(); perr != nil {
		if errors.Is(perr, ErrStale) {
			return nil, ss.stepDown(s, ctl, "claim")
		}
		ss.opt.Metrics.Counter("wan.georep.claim_degraded").Inc()
		ss.opt.Log.Addf("site %d claim probe degraded", id)
	}
	if last := ctl.LastGoodRates(); last != nil {
		if _, uerr := ctl.UpdateRates(last); uerr != nil {
			if errors.Is(uerr, ErrStale) {
				return nil, ss.stepDown(s, ctl, "reassert")
			}
			ss.opt.Metrics.Counter("wan.failover.reassert_errors").Inc()
			ss.opt.Log.Addf("failover reassert failed site=%d", id)
		} else {
			ss.opt.Metrics.Counter("wan.failover.reasserts").Inc()
			ss.opt.Log.Addf("failover reassert site=%d epoch=%d", id, rec.Epoch)
		}
	}
	ss.mu.Lock()
	s.promoted = true
	ss.promoted = true
	ss.mu.Unlock()
	ss.repl.RemoveTarget(fmt.Sprintf("site-%d", id))
	p.Elapsed = time.Since(start)
	ss.opt.Metrics.Counter("wan.failover.promotions").Inc()
	ss.opt.Metrics.Timer("wan.failover.time").Observe(p.Elapsed)
	return p, nil
}

// detachApply hands the site's directory from the apply path to a
// promotion: the applier's store is closed (releasing the local flock) and
// the replication ingress starts refusing frames. Returns the site's
// standby-lifetime re-sync count and its applied prefix for the audit.
func (ss *SiteSet) detachApply(s *site) (int64, uint64) {
	ss.mu.Lock()
	s.takenOver = true
	st := s.store
	s.store = nil
	s.applier = nil
	resyncs, applied := s.resyncs, s.lastApplied
	ss.mu.Unlock()
	if st != nil {
		st.Close()
	}
	return resyncs, applied
}

// stepDown unwinds a claim the agents refused: the half-promoted
// controller (and with it the site store it opened) is closed, the site
// re-opens its directory and resumes standby duty, and the loss is
// recorded. Returns the wrapped ErrClaimFenced.
func (ss *SiteSet) stepDown(s *site, ctl *Controller, phase string) error {
	ctl.Close()
	ss.rejoinStandby(s)
	ss.opt.Metrics.Counter("wan.georep.fenced_claims").Inc()
	ss.opt.Log.Addf("site %d %s fenced; stepping down", s.id, phase)
	return fmt.Errorf("wan: site %d: %w", s.id, ErrClaimFenced)
}

// rejoinStandby re-opens a site's directory for standby duty after a failed
// promotion, re-attaching the apply path so replication resumes.
func (ss *SiteSet) rejoinStandby(s *site) {
	st, err := persist.Open(s.dir, persist.Options{Metrics: ss.opt.Metrics})
	if err != nil {
		ss.opt.Metrics.Counter("wan.georep.rejoin_errors").Inc()
		ss.opt.Log.Addf("site %d rejoin failed", s.id)
		return
	}
	ss.mu.Lock()
	s.store = st
	s.applier = persist.NewApplier(st, persist.ApplierOptions{Metrics: ss.opt.Metrics})
	s.lastApplied = st.LastSeq()
	s.takenOver = false
	ss.mu.Unlock()
	ss.opt.Log.Addf("site %d rejoined as standby epoch=%d", s.id, st.LastSeq())
}

// Close tears down every site (ship and heartbeat connections, replication
// ingress, local store) and the replicator. A promoted controller is NOT
// closed — its ownership passed to the caller. Idempotent.
func (ss *SiteSet) Close() error {
	ss.mu.Lock()
	sites := ss.sites
	ss.sites = nil
	ss.mu.Unlock()
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, s := range sites {
		if s.ship != nil {
			keep(s.ship.Close())
		}
		if s.hb != nil {
			keep(s.hb.Close())
		}
		if s.srv != nil {
			keep(s.srv.Close())
		}
		if s.store != nil {
			keep(s.store.Close())
		}
	}
	keep(ss.repl.Close())
	return first
}
