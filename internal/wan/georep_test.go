package wan

import (
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"prete/internal/obs"
)

// newSiteHarness stands up a stateful leader testbed, its lease endpoint,
// and a cross-site set of n standby sites, each with its own replicated
// state directory under a shared root. LeaseTicks is 3 with a fast 100 ms
// heartbeat timeout so failovers resolve in a handful of ticks.
func newSiteHarness(t *testing.T, n int) (tb *Testbed, lease *LeaseServer, ss *SiteSet) {
	t.Helper()
	dir := t.TempDir()
	tb = newStateTestbed(t)
	if _, err := tb.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	lease, err := NewLeaseServer(tb.Ctl.Generation)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lease.Close() })
	ss, err = NewSiteSet(dir, t.TempDir(), lease.Addr(), tb.AgentAddrs(), SiteOptions{
		Sites:            n,
		LeaseTicks:       3,
		HeartbeatTimeout: 100 * time.Millisecond,
		Metrics:          obs.NewRegistry(),
		Log:              new(EventLog),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ss.Close() })
	return tb, lease, ss
}

// TestSiteSetShipsAndMirrors: a healthy leader's journal records ship to
// every site on each tick, every site's mirror tracks the live epoch, the
// shipping accounting balances exactly, and no lease ever runs low.
func TestSiteSetShipsAndMirrors(t *testing.T) {
	checkGoroutineLeaks(t)
	tb, _, ss := newSiteHarness(t, 2)

	// Cold tick before any epoch: no promotion, empty mirrors.
	if p, err := ss.Tick(); p != nil || err != nil {
		t.Fatalf("cold tick: promotion=%v err=%v", p, err)
	}
	for _, st := range ss.Status() {
		if st.Applied != 0 {
			t.Fatalf("cold site status = %+v", st)
		}
	}

	for epoch := uint64(1); epoch <= 2; epoch++ {
		if _, err := tb.RunScenario(7); err != nil {
			t.Fatal(err)
		}
		if p, err := ss.Tick(); p != nil || err != nil {
			t.Fatalf("tick after epoch %d: promotion=%v err=%v", epoch, p, err)
		}
		for _, st := range ss.Status() {
			if st.Applied != epoch {
				t.Errorf("site %d applied prefix = %d after epoch %d", st.ID, st.Applied, epoch)
			}
			if st.Resyncs != 0 {
				t.Errorf("site %d unexpected state: %+v", st.ID, st)
			}
			if st.LeaseRemaining <= 0 {
				t.Errorf("site %d lease low: %+v", st.ID, st)
			}
			if st.LeaseGen != 1 {
				t.Errorf("site %d lease gen = %d, want live leader gen 1", st.ID, st.LeaseGen)
			}
		}
	}

	// Exact shipping accounting: every shipped frame is acked, nothing is in
	// flight, nothing needed a retry or a snapshot on a clean stream.
	rs := ss.ReplStats()
	m := ss.opt.Metrics
	if rs.Shipped == 0 || rs.Shipped != rs.Acked || rs.Inflight != 0 || rs.Resent != 0 || m.Counter("persist.repl.resyncs").Value() != 0 {
		t.Errorf("clean-stream accounting off: %+v, %d resyncs", rs, m.Counter("persist.repl.resyncs").Value())
	}
	if v := m.Counter("wan.georep.ticks").Value(); v != 3 {
		t.Errorf("wan.georep.ticks = %d, want 3", v)
	}
	if v := m.Counter("wan.georep.heartbeats").Value(); v != 6 {
		t.Errorf("wan.georep.heartbeats = %d, want 6", v)
	}
	if v := m.Counter("wan.georep.misses").Value(); v != 0 {
		t.Errorf("wan.georep.misses = %d, want 0", v)
	}
	if v := m.Counter("wan.georep.elections").Value(); v != 0 {
		t.Errorf("wan.georep.elections = %d, want 0", v)
	}
}

// TestSiteSetDeadFileAlarm: a leader file whose magic is wiped holds nothing
// recovery or shipping can read, so the next tick raises the dead-file alarm
// — once, not again on the following tick while the count stays put.
func TestSiteSetDeadFileAlarm(t *testing.T) {
	checkGoroutineLeaks(t)
	dir := t.TempDir()
	tb := newStateTestbed(t)
	if _, err := tb.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	lease, err := NewLeaseServer(tb.Ctl.Generation)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lease.Close() })
	ss, err := NewSiteSet(dir, t.TempDir(), lease.Addr(), tb.AgentAddrs(), SiteOptions{
		Sites:   1,
		Metrics: obs.NewRegistry(),
		Log:     new(EventLog),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ss.Close() })

	if _, err := tb.RunScenario(7); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.Tick(); err != nil {
		t.Fatal(err)
	}
	journals, err := filepath.Glob(filepath.Join(dir, "journal-*"))
	if err != nil || len(journals) != 1 {
		t.Fatalf("leader journals = %v (err %v), want one", journals, err)
	}
	b, err := os.ReadFile(journals[0])
	if err != nil {
		t.Fatal(err)
	}
	copy(b, make([]byte, 8)) // wipe the magic
	if err := os.WriteFile(journals[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := ss.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if v := ss.opt.Metrics.Counter("wan.georep.dead_file_alarms").Value(); v != 1 {
		t.Errorf("wan.georep.dead_file_alarms = %d, want 1", v)
	}
	logged := 0
	for _, ev := range ss.opt.Log.Events() {
		if ev == "repl dead files n=1" {
			logged++
		}
	}
	if logged != 1 {
		t.Errorf("logged %q %d times, want once", "repl dead files n=1", logged)
	}
	if got := ss.ReplStats().TailDeadFiles; got != 1 {
		t.Errorf("TailDeadFiles = %d, want 1", got)
	}
}

// TestSiteServerProtocol pins the replication wire contract between the
// sitePipe shipper and a SiteServer: ack, re-sync, and refusal responses
// map onto the persist.Pipe result exactly, the snapshot flag survives the
// trip, and a non-replication message is refused without killing the
// connection.
func TestSiteServerProtocol(t *testing.T) {
	checkGoroutineLeaks(t)
	type answer struct {
		ack    uint64
		resync bool
		errstr string
	}
	script := []answer{{ack: 5}, {ack: 5, resync: true}, {errstr: "boom"}, {ack: 6}}
	var mu sync.Mutex
	var snapshots []bool
	srv, err := NewSiteServer(func(frame []byte, snapshot bool) (uint64, bool, string) {
		mu.Lock()
		defer mu.Unlock()
		snapshots = append(snapshots, snapshot)
		a := script[0]
		script = script[1:]
		return a.ack, a.resync, a.errstr
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cn, err := TCPTransport{}.Dial("repl/1", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cn.Close() })
	pipe := sitePipe{conn: cn, timeout: time.Second}

	if ack, resync, err := pipe.Ship([]byte("r1"), false); ack != 5 || resync || err != nil {
		t.Fatalf("acked record = (%d, %v, %v), want (5, false, nil)", ack, resync, err)
	}
	if ack, resync, err := pipe.Ship([]byte("r2"), false); ack != 5 || !resync || err != nil {
		t.Fatalf("re-sync answer = (%d, %v, %v), want (5, true, nil)", ack, resync, err)
	}
	if _, _, err := pipe.Ship([]byte("r3"), false); err == nil {
		t.Fatal("refused frame shipped without error")
	}
	if _, _, err := pipe.Ship([]byte("snap"), true); err != nil {
		t.Fatalf("snapshot ship: %v", err)
	}
	mu.Lock()
	wantSnaps := []bool{false, false, false, true}
	if !reflect.DeepEqual(snapshots, wantSnaps) {
		t.Errorf("snapshot flags seen = %v, want %v", snapshots, wantSnaps)
	}
	mu.Unlock()

	// A non-replication message is refused, and the connection survives.
	if resp, _ := cn.RoundTrip(&Request{Type: MsgPing}, time.Second); resp == nil || resp.OK || resp.Err == "" {
		t.Fatalf("site ingress accepted a non-replication message: %+v", resp)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestSitePromotionLeaseGate: claiming leadership while the leader's lease
// is still live fails typed with ErrLeaseValid before any network traffic,
// and an unknown site id is rejected outright.
func TestSitePromotionLeaseGate(t *testing.T) {
	checkGoroutineLeaks(t)
	tb, _, ss := newSiteHarness(t, 1)
	if _, err := tb.RunScenario(7); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.Tick(); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.Promote(1); !errors.Is(err, ErrLeaseValid) {
		t.Fatalf("claim under a live lease: err = %v, want ErrLeaseValid", err)
	}
	if anyPromoted(ss) {
		t.Fatal("refused claim left the set promoted")
	}
	if _, err := ss.Promote(9); err == nil || errors.Is(err, ErrLeaseValid) {
		t.Fatalf("unknown site claim: err = %v, want a not-found error", err)
	}
	if err := ss.CrashSite(9); err == nil {
		t.Fatal("crashed an unknown site")
	}
}

// TestDoublePromotionRace: two sites whose leases have both lapsed claim
// leadership concurrently. No lock is shared between them — both open their
// own directory at the same floored generation — so the agents' named
// equal-generation tie-break is the only arbiter: exactly one claim wins,
// the loser fails typed with ErrClaimFenced and is a standby again, and the
// run is clean under -race.
func TestDoublePromotionRace(t *testing.T) {
	checkGoroutineLeaks(t)
	tb, lease, ss := newSiteHarness(t, 2)
	if _, err := tb.RunScenario(7); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.Tick(); err != nil {
		t.Fatal(err)
	}
	lease.Close()
	ss.Clock().Advance(3) // a full lease duration of silence: both leases lapse

	type outcome struct {
		p   *SitePromotion
		err error
	}
	results := make([]outcome, 2)
	var wg sync.WaitGroup
	for i, id := range []int{1, 2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := ss.Promote(id)
			results[i] = outcome{p, err}
		}()
	}
	wg.Wait()

	winner := 0
	for i, r := range results {
		switch {
		case r.p != nil && r.err == nil:
			if winner != 0 {
				t.Fatalf("both claims won: sites %d and %d", winner, i+1)
			}
			winner = i + 1
			t.Cleanup(func() { r.p.Ctl.Close() })
			if e, g := r.p.Ctl.Epoch(), r.p.Ctl.Generation(); e != 1 || g != 2 {
				t.Errorf("winner recovered epoch %d gen %d, want warm epoch 1 gen 2", e, g)
			}
		case errors.Is(r.err, ErrClaimFenced):
		default:
			t.Errorf("unexpected race outcome for site %d: promotion=%v err=%v", i+1, r.p, r.err)
		}
	}
	if winner == 0 {
		t.Fatal("neither claim won")
	}
	if got := promotedSites(ss); !reflect.DeepEqual(got, []int{winner}) {
		t.Errorf("promoted sites after the race = %v, want [%d]", got, winner)
	}
	// The loser stepped down and re-opened its directory for standby duty
	// with its applied prefix intact.
	if v := ss.opt.Metrics.Counter("wan.georep.fenced_claims").Value(); v != 1 {
		t.Errorf("wan.georep.fenced_claims = %d, want 1", v)
	}
	for _, st := range ss.Status() {
		if st.Applied != 1 {
			t.Errorf("site status after the race: %+v", st)
		}
	}
	for _, a := range tb.Agents {
		if got := a.MaxGen(); got != 2 {
			t.Errorf("agent %s fence = gen %d, want 2", a.Name, got)
		}
	}
}

// TestReplicasQuietByteIdentity pins the compatibility guarantee of an
// empty site set: a leader watched by a SiteSet with Sites: 0 — replicator
// tailing its directory, ticked every epoch, sharing its event log —
// produces exactly the same event sequence, the same agent-visible rates,
// and byte-identical state-directory files as a leader with no SiteSet at
// all.
func TestReplicasQuietByteIdentity(t *testing.T) {
	checkGoroutineLeaks(t)
	run := func(watched bool) (events []string, rates []map[string]float64, files map[string][32]byte) {
		dir := t.TempDir()
		tb := newStateTestbed(t)
		if _, err := tb.OpenState(dir); err != nil {
			t.Fatal(err)
		}
		var ss *SiteSet
		if watched {
			lease, err := NewLeaseServer(tb.Ctl.Generation)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { lease.Close() })
			ss, err = NewSiteSet(dir, t.TempDir(), lease.Addr(), tb.AgentAddrs(), SiteOptions{
				Sites:   0,
				Metrics: obs.NewRegistry(),
				Log:     tb.Ctl.Log,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ss.Close() })
		}
		for i := 0; i < 2; i++ {
			if _, err := tb.RunScenario(7); err != nil {
				t.Fatal(err)
			}
			if ss != nil {
				if p, err := ss.Tick(); p != nil || err != nil {
					t.Fatalf("quiet tick: promotion=%v err=%v", p, err)
				}
			}
		}
		for _, a := range tb.Agents {
			rates = append(rates, a.Rates())
		}
		names, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files = make(map[string][32]byte, len(names))
		for _, de := range names {
			b, err := os.ReadFile(filepath.Join(dir, de.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[de.Name()] = sha256.Sum256(b)
		}
		return tb.Ctl.Log.Events(), rates, files
	}

	plainEvents, plainRates, plainFiles := run(false)
	watchEvents, watchRates, watchFiles := run(true)
	if !reflect.DeepEqual(watchEvents, plainEvents) {
		t.Errorf("leader event sequence diverged under watch:\n with: %v\n want: %v",
			watchEvents, plainEvents)
	}
	if !reflect.DeepEqual(watchRates, plainRates) {
		t.Errorf("agent rates diverged under watch: %v vs %v", watchRates, plainRates)
	}
	if !reflect.DeepEqual(watchFiles, plainFiles) {
		t.Errorf("state-directory bytes diverged under watch:\n with: %v\n want: %v",
			watchFiles, plainFiles)
	}
}

// TestEqualGenNamedTiebreak pins the agent-side arbitration that replaces
// the shared flock across sites: two claimants fenced to the same
// generation tie-break to whichever named leader reached the agent first,
// while unnamed equal-generation senders keep the legacy always-accepted
// behaviour.
func TestEqualGenNamedTiebreak(t *testing.T) {
	checkGoroutineLeaks(t)
	a := newTestAgent(t, "s1", fastSwitch())
	cn, err := TCPTransport{}.Dial("ctl", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cn.Close() })
	ping := func(gen uint64, leader string) *Response {
		t.Helper()
		// A refusal surfaces as both a populated Response and an error; the
		// Response carries the verdict the test cares about.
		resp, err := cn.RoundTrip(&Request{Type: MsgPing, Gen: gen, Leader: leader}, time.Second)
		if resp == nil {
			t.Fatalf("ping gen=%d leader=%q: no response (%v)", gen, leader, err)
		}
		return resp
	}

	if resp := ping(5, "site-1"); !resp.OK || resp.Stale {
		t.Fatalf("first named claimant refused: %+v", resp)
	}
	if got := a.MaxGen(); got != 5 {
		t.Fatalf("agent fence = gen %d, want 5", got)
	}
	// An equal-generation sibling claimant loses the tie-break.
	if resp := ping(5, "site-2"); !resp.Stale || resp.Gen != 5 {
		t.Fatalf("sibling claimant at the same gen accepted: %+v", resp)
	}
	// The winner keeps working at the same generation.
	if resp := ping(5, "site-1"); !resp.OK || resp.Stale {
		t.Fatalf("winning claimant refused at its own gen: %+v", resp)
	}
	// Unnamed equal-generation traffic is the legacy protocol: accepted.
	if resp := ping(5, ""); !resp.OK || resp.Stale {
		t.Fatalf("legacy unnamed sender refused at the fence gen: %+v", resp)
	}
	// Older generations stay fenced regardless of the name.
	if resp := ping(4, "site-1"); !resp.Stale {
		t.Fatalf("stale generation accepted from the winner: %+v", resp)
	}
	// A higher generation hands the name over; the old winner is now stale.
	if resp := ping(6, "site-2"); !resp.OK || resp.Stale {
		t.Fatalf("higher-gen claimant refused: %+v", resp)
	}
	if resp := ping(6, "site-1"); !resp.Stale {
		t.Fatalf("dethroned claimant accepted at the new gen: %+v", resp)
	}
	if got := a.FenceRejections(); got != 3 {
		t.Errorf("fence rejections = %d, want 3", got)
	}
}

// TestSiteFailoverPromotesWarm is the cross-site end-to-end check: the
// leader's lease endpoint dies, site 1's lease runs out after a full
// duration of misses, and the site promotes from its own replicated
// directory — warm, mirror-matched, fenced one generation above everything
// its lease observed — then re-asserts the last-good plan while the zombie
// predecessor bounces off the fleet-wide fence.
func TestSiteFailoverPromotesWarm(t *testing.T) {
	checkGoroutineLeaks(t)
	tb, lease, ss := newSiteHarness(t, 2)
	if _, err := tb.RunScenario(7); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.Tick(); err != nil {
		t.Fatal(err)
	}
	wantRates := tb.Ctl.LastGoodRates()
	if wantRates == nil {
		t.Fatal("no last-good rates after epoch 1")
	}

	// Leader death: the lease endpoint dies with the process, but the
	// leader's agent connections survive — the zombie case. There is no
	// shared flock to release across sites.
	lease.Close()

	var p *SitePromotion
	ticks := 0
	for p == nil {
		var err error
		if p, err = ss.Tick(); err != nil {
			t.Fatalf("tick %d after lease death: %v", ticks, err)
		}
		if ticks++; ticks > 6 {
			t.Fatal("no promotion within 6 ticks of lease death")
		}
	}
	if p.SiteID != 1 {
		t.Errorf("promoted site = %d, want lowest site 1", p.SiteID)
	}
	if e, g := p.Ctl.Epoch(), p.Ctl.Generation(); e != 1 || g != 2 {
		t.Errorf("promotion recovered epoch %d gen %d, want warm epoch 1 gen 2", e, g)
	}
	if !p.MirrorMatch {
		t.Error("replicated mirror did not match recovered state")
	}
	m := ss.opt.Metrics
	if r, d, e := m.Counter("wan.failover.reasserts").Value(), m.Counter("wan.georep.claim_degraded").Value(),
		m.Counter("wan.failover.reassert_errors").Value(); r != 1 || d != 0 || e != 0 {
		t.Errorf("re-assert: reasserts=%d claim_degraded=%d reassert_errors=%d, want one clean re-assert", r, d, e)
	}
	// The caught-up site presumes the fleet holds its recovered table: the
	// re-assert is a heartbeat per agent and sends no rate entry.
	if s, r := m.Counter("wan.rates.entries_sent").Value(), m.Counter("wan.rates.resyncs").Value(); s != 0 || r != 0 {
		t.Errorf("re-assert sent %d rate entries with %d resyncs, want 0 and 0", s, r)
	}
	if p.Elapsed >= 10*time.Second {
		t.Errorf("promotion took %v, want well under one TE period", p.Elapsed)
	}
	if got := promotedSites(ss); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("promoted sites = %v, want [1]", got)
	}

	zombie := tb.AdoptPromoted(p.Ctl)
	t.Cleanup(func() { zombie.Close() })

	// The fleet converged back onto the last-good plan under generation 2.
	for _, a := range tb.Agents {
		if got := a.Rates(); !reflect.DeepEqual(got, wantRates) {
			t.Errorf("agent %s rates after failover = %v, want %v", a.Name, got, wantRates)
		}
		if got := a.MaxGen(); got != 2 {
			t.Errorf("agent %s fence = gen %d, want 2", a.Name, got)
		}
	}
	// The zombie still stamps generation 1; its writes bounce off the fence.
	if _, err := zombie.UpdateRates(map[string]float64{"t0": 99}); err == nil {
		t.Fatal("zombie leader's post-promotion write accepted")
	}
	fenced := 0
	for _, a := range tb.Agents {
		fenced += a.FenceRejections()
	}
	if fenced == 0 {
		t.Error("no agent recorded a fence rejection")
	}

	// The site set is inert after hand-off; the adopted controller runs the
	// next epoch as the recovered lineage.
	if p2, err := ss.Tick(); p2 != nil || err != nil {
		t.Fatalf("post-promotion tick: promotion=%v err=%v", p2, err)
	}
	if _, err := tb.RunScenario(7); err != nil {
		t.Fatal(err)
	}
	if got := tb.Ctl.Epoch(); got != 2 {
		t.Errorf("epoch after failover + one round = %d, want 2", got)
	}
	if v := m.Counter("wan.georep.elections").Value(); v != 1 {
		t.Errorf("wan.georep.elections = %d, want 1", v)
	}
	if v := m.Counter("wan.failover.promotions").Value(); v != 1 {
		t.Errorf("wan.failover.promotions = %d, want 1", v)
	}
	if v := m.Counter("wan.failover.mirror_match").Value(); v != 1 {
		t.Errorf("wan.failover.mirror_match = %d, want 1", v)
	}
}

// TestPromotionReplaysBoundedJournal: a site that mirrors more than two
// compaction cadences of leader epochs snapshots on the store's own cadence
// (64), so its promotion replays at most 2×64 records, not one per epoch
// mirrored. Epochs are journaled directly, without a TE round, to keep the
// run short.
func TestPromotionReplaysBoundedJournal(t *testing.T) {
	checkGoroutineLeaks(t)
	tb, lease, ss := newSiteHarness(t, 1)
	const epochs = 3*64 + 1
	probs := []float64{0.01, 0.02, 0.03}
	for e := 1; e <= epochs; e++ {
		if err := tb.Ctl.JournalEpoch(probs, 0); err != nil {
			t.Fatal(err)
		}
		if p, err := ss.Tick(); p != nil || err != nil {
			t.Fatalf("tick after epoch %d: promotion=%v err=%v", e, p, err)
		}
	}
	if st := ss.Status()[0]; st.Applied != epochs || st.Resyncs != 0 {
		t.Fatalf("site status before promotion = %+v, want %d applied without re-syncs", st, epochs)
	}

	lease.Close()
	ss.Clock().Advance(3) // a full lease duration of silence: the lease lapses
	p, err := ss.Promote(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Ctl.Close() })
	if p.Ctl.Epoch() != epochs || !p.MirrorMatch {
		t.Fatalf("promotion recovered epoch %d (mirror match %v), want %d", p.Ctl.Epoch(), p.MirrorMatch, epochs)
	}
	if got := ss.opt.Metrics.Counter("wan.recovery.records").Value(); got > 2*64 {
		t.Errorf("promotion replayed %d records of a %d-epoch mirror, want at most %d", got, epochs, 2*64)
	}
}

// TestSetLeaderReachablePausesStream: a partitioned leader stops driving
// the replication stream — sites fall behind — and resuming reachability
// ships the backlog on the next tick without a re-sync.
func TestSetLeaderReachablePausesStream(t *testing.T) {
	checkGoroutineLeaks(t)
	tb, _, ss := newSiteHarness(t, 1)

	if _, err := tb.RunScenario(7); err != nil {
		t.Fatal(err)
	}
	ss.SetLeaderReachable(false)
	if p, err := ss.Tick(); p != nil || err != nil {
		t.Fatalf("partitioned tick: promotion=%v err=%v", p, err)
	}
	if rs := ss.ReplStats(); rs.Shipped != 0 {
		t.Fatalf("partitioned leader still shipped: %+v", rs)
	}
	if st := ss.Status()[0]; st.Applied != 0 {
		t.Fatalf("site mirror advanced across the partition: %+v", st)
	}
	// Heartbeats are governed by the lease endpoint, not the stream: the
	// lease stayed fresh through the partition.
	if st := ss.Status()[0]; st.LeaseRemaining <= 0 {
		t.Fatalf("lease lapsed during a leader-side partition: %+v", st)
	}

	ss.SetLeaderReachable(true)
	if p, err := ss.Tick(); p != nil || err != nil {
		t.Fatalf("healed tick: promotion=%v err=%v", p, err)
	}
	rs := ss.ReplStats()
	if n := ss.opt.Metrics.Counter("persist.repl.resyncs").Value(); rs.Shipped == 0 || rs.Shipped != rs.Acked || n != 0 {
		t.Fatalf("backlog did not ship cleanly after heal: %+v, %d resyncs", rs, n)
	}
	if st := ss.Status()[0]; st.Applied != 1 {
		t.Fatalf("site mirror behind after heal: %+v", st)
	}
	if got := ss.Clock().Now(); got != 2 {
		t.Fatalf("lease clock at %d after two ticks, want 2", got)
	}
}

// TestFencedClaimStepsDownAndRejoins: a rival claimant (a sibling site this
// set cannot see) has already fenced every agent at a higher generation.
// When this set's site claims after lease expiry, the fence probe is
// refused, the claim steps down — controller torn down, directory re-opened
// for standby duty — and ErrClaimFenced surfaces. The site keeps standing
// by: the next election repeats the claim and loses again.
func TestFencedClaimStepsDownAndRejoins(t *testing.T) {
	checkGoroutineLeaks(t)
	tb, lease, ss := newSiteHarness(t, 1)

	if _, err := tb.RunScenario(7); err != nil {
		t.Fatal(err)
	}
	if p, err := ss.Tick(); p != nil || err != nil {
		t.Fatalf("warm tick: promotion=%v err=%v", p, err)
	}

	// The rival fences the whole fleet far above anything this site's
	// lease observed.
	for _, a := range tb.Agents {
		cn, err := TCPTransport{}.Dial("ctl", a.Addr())
		if err != nil {
			t.Fatal(err)
		}
		resp, _ := cn.RoundTrip(&Request{Type: MsgPing, Gen: 7, Leader: "site-9"}, time.Second)
		cn.Close()
		if resp == nil || !resp.OK {
			t.Fatalf("rival fence refused: %+v", resp)
		}
	}

	lease.Close()
	var ferr error
	for i := 0; i < 6 && ferr == nil; i++ {
		_, ferr = ss.Tick()
	}
	if !errors.Is(ferr, ErrClaimFenced) {
		t.Fatalf("claim against a fenced fleet: err = %v, want ErrClaimFenced", ferr)
	}
	if anyPromoted(ss) {
		t.Fatal("fenced site still marked itself leader")
	}
	if st := ss.Status()[0]; st.Applied != 1 {
		t.Fatalf("rejoined standby lost its applied prefix: %+v", st)
	}
	m := ss.opt.Metrics
	if v := m.Counter("wan.georep.fenced_claims").Value(); v != 1 {
		t.Errorf("wan.georep.fenced_claims = %d, want 1", v)
	}
	if v := m.Counter("wan.georep.rejoin_errors").Value(); v != 0 {
		t.Errorf("wan.georep.rejoin_errors = %d, want 0", v)
	}
	if v := m.Counter("wan.failover.promotions").Value(); v != 0 {
		t.Errorf("wan.failover.promotions = %d, want 0", v)
	}

	// Standby duty resumed: the directory re-opened, so the next election
	// claims again — and loses to the same fence.
	if _, err := ss.Tick(); !errors.Is(err, ErrClaimFenced) {
		t.Fatalf("second claim: err = %v, want ErrClaimFenced", err)
	}
	if v := m.Counter("wan.georep.fenced_claims").Value(); v != 2 {
		t.Fatalf("wan.georep.fenced_claims after second loss = %d, want 2", v)
	}
}

// anyPromoted reports whether a site of ss has taken over.
func anyPromoted(ss *SiteSet) bool { return len(promotedSites(ss)) > 0 }

// promotedSites returns the ids of the sites of ss that have taken over.
func promotedSites(ss *SiteSet) []int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	var ids []int
	for _, s := range ss.sites {
		if s.promoted {
			ids = append(ids, s.id)
		}
	}
	return ids
}
