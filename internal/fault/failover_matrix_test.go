package fault

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"prete/internal/core"
	"prete/internal/obs"
	"prete/internal/optical"
	"prete/internal/te"
	"prete/internal/wan"
)

// tePeriod is the recovery bound every failover row is held to: an
// aggressive lower bound for a production TE period (§5 runs minutes).
const tePeriod = 10 * time.Second

// failoverCase is one row of the failover matrix. The fields follow the
// matrix's four columns: the failure class (name), where it is injected,
// the expected outcome, and — common to every row — the replay evidence in
// failoverRun. Every row runs against one wan.SiteSet; there is no shared
// lock anywhere, so the agents' generation + named-claimant fence is the
// only thing standing between any row and a split brain.
type failoverCase struct {
	name string

	// Setup.
	sites      int
	leaseTicks uint64 // 2 for the in-site rows F1-F9 (the old miss threshold), 3 for F10-F14
	epochs     int    // healthy epochs before the failure
	retain     int    // leader-side replication buffer cap (0 = default)
	classes    *te.ClassSpec
	storm      []core.DegradationSignal // fibers degraded alongside the VOA's (degradation storm)

	// Injection point.
	crashSites  []int                  // sites dead before the leader fails (SiteSet.CrashSite)
	shipSpec    map[int]Spec           // per-site replication-stream chaos
	hbSpec      map[int]Spec           // per-site heartbeat chaos (a partitioned failure detector)
	agentSpec   Spec                   // chaos on the promoted controller's agent transport
	crashBudget int64                  // >= 0: kill the leader mid-epoch after this many RPCs; -1: clean death
	corrupt     func(dir string) error // mutate site 1's own state directory after the leader dies
	leaderLives bool                   // the leader is never killed; its next full epoch must be fenced
	cutLeader   bool                   // with leaderLives: it also loses the lease endpoint and every ship stream
	secondClaim bool                   // site 2 claims after site 1 won and must lose at the agents
	hookOffset  int64                  // > 0: leases lapse and site 1 claims this many leader RPCs into the next epoch
	maxTicks    int                    // detection ticks allowed

	// Expected outcome.
	wantPromoted   int // 0 = the ladder must hold at "no promotion, plan stays installed"
	wantWarm       bool
	wantEpoch      uint64
	wantMirror     bool
	wantReassert   bool
	wantMinResyncs int64 // lower bound on snapshot re-syncs the promoted site needed
	wantFenced     int   // exact count of promotion claims lost at the agents
}

// failoverRun is the replay evidence of one failover trace. Two runs of
// the same row must be reflect.DeepEqual — events, fault histories, final
// plans, the admission decision, AND the byte content of every state
// directory (DirHashes: each site's, then the leader's).
type failoverRun struct {
	Events       []string
	Faults       []string
	Rates        []map[string]float64
	Promoted     int
	Warm         bool
	Epoch        uint64
	MirrorMatch  bool
	Reasserted   bool
	Degraded     bool
	Resyncs      int64
	DetectTicks  int
	FencedClaims int
	Fenced       int
	HaltAttempt  int64
	ZombieErr    string
	Shipped      int64
	Acked        int64
	Resent       int64
	DirHashes    []string
	Status       []wan.SiteStatus
	Admission    *wan.AdmissionDecision
}

// hashDir digests a state directory: sha256 over every file's relative path
// and content in sorted order. Journal bytes, snapshot bytes, generation
// counters — if any durable byte differs between two runs, the digest does.
func hashDir(t *testing.T, dir string) string {
	t.Helper()
	h := sha256.New()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s:%d:", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		t.Fatalf("hash %s: %v", dir, err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func agentRates(tb *wan.Testbed) []map[string]float64 {
	out := make([]map[string]float64, len(tb.Agents))
	for i, a := range tb.Agents {
		out[i] = a.Rates()
	}
	return out
}

// runFailoverScenario drives one row: healthy epochs with the leader's
// journal shipping to every site, the injected failure, lease expiry and
// promotion (or the expected absence of one), the post-failover epoch on
// the adopted lineage, and the zombie fence probe.
func runFailoverScenario(t *testing.T, fc failoverCase) failoverRun {
	t.Helper()
	reg := obs.NewRegistry()
	log := new(wan.EventLog)
	dir := t.TempDir()
	sitesRoot := t.TempDir()
	siteDir := func(id int) string { return filepath.Join(sitesRoot, fmt.Sprintf("site-%d", id)) }
	retry := wan.RetryPolicy{MaxAttempts: 6, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond, Jitter: 0.5}

	ct := NewCtlCrash(wan.TCPTransport{}, 0, reg)
	ct.Disarm()
	tb, err := wan.NewTestbedTransport(fastSwitch(), func(f optical.Features) float64 { return 0.8 }, ct)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	tb.SolveUnits = 200000
	tb.Ctl.Metrics = reg
	tb.Ctl.Log = log
	tb.Ctl.Retry = retry
	tb.Classes = fc.classes
	for _, sig := range fc.storm {
		tb.Signal(sig.Fiber, sig.PNN)
	}
	if _, err := tb.OpenState(dir); err != nil {
		t.Fatal(err)
	}
	lease, err := wan.NewLeaseServer(tb.Ctl.Generation)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lease.Close() })

	// Each injected link gets its own injector, so its fault stream (and
	// History) is decorrelated from every other link's.
	type injectedLink struct {
		name string
		inj  *Injector
	}
	var injected []injectedLink
	inject := func(link string, spec Spec) wan.Transport {
		if !spec.Active() {
			return wan.TCPTransport{}
		}
		inj, err := NewInjector(spec, reg)
		if err != nil {
			t.Fatal(err)
		}
		injected = append(injected, injectedLink{link, inj})
		return NewTransport(wan.TCPTransport{}, inj)
	}
	ss, err := wan.NewSiteSet(dir, sitesRoot, lease.Addr(), tb.AgentAddrs(), wan.SiteOptions{
		Sites:            fc.sites,
		LeaseTicks:       fc.leaseTicks,
		HeartbeatTimeout: 100 * time.Millisecond,
		RetainRecords:    fc.retain,
		Transport:        inject("agent", fc.agentSpec),
		Ship:             func(id int) wan.Transport { return inject(fmt.Sprintf("ship%d", id), fc.shipSpec[id]) },
		Heartbeat:        func(id int) wan.Transport { return inject(fmt.Sprintf("hb%d", id), fc.hbSpec[id]) },
		Retry:            retry,
		Metrics:          reg,
		Log:              log,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ss.Close() })
	for _, id := range fc.crashSites {
		if err := ss.CrashSite(id); err != nil {
			t.Fatal(err)
		}
	}

	var run failoverRun
	tick := func() *wan.SitePromotion {
		p, err := ss.Tick()
		if err != nil {
			if !errors.Is(err, wan.ErrClaimFenced) {
				t.Fatalf("tick: %v", err)
			}
			run.FencedClaims++
		}
		return p
	}

	// Healthy phase: the leader journals epochs, each Tick ships them to
	// every site and renews every reachable site's lease.
	for e := 0; e < fc.epochs; e++ {
		if _, err := tb.RunScenario(7); err != nil {
			t.Fatalf("healthy epoch %d: %v", e+1, err)
		}
		if p := tick(); p != nil {
			t.Fatalf("promotion while every lease is live: %+v", p)
		}
	}
	installed := agentRates(tb)

	// The injected failure, then detection and hand-off.
	var prom *wan.SitePromotion
	if fc.hookOffset > 0 {
		// All leases lapse (the clock jumps a full duration with no renewing
		// tick) and the promotion fires at an exact point inside the leader's
		// next epoch — the claim races a live solve.
		ss.Clock().Advance(fc.leaseTicks + 1)
		var hookErr error
		fired := false
		ct.ArmHook(ct.Attempts()+fc.hookOffset, func() {
			fired = true
			prom, hookErr = ss.Promote(1)
		})
		if _, zerr := tb.RunScenario(7); zerr != nil {
			run.ZombieErr = zerr.Error()
		}
		if hookErr != nil {
			t.Fatalf("mid-epoch promotion: %v", hookErr)
		}
		if prom == nil || !fired {
			t.Fatalf("promotion hook never fired (fired=%v)", fired)
		}
	} else {
		switch {
		case fc.cutLeader:
			// Alive but fully partitioned: sites see only silence.
			ss.SetLeaderReachable(false)
			lease.Close()
		case !fc.leaderLives:
			if fc.crashBudget >= 0 {
				ct.Arm(fc.crashBudget)
				if _, err := tb.RunScenario(7); !errors.Is(err, wan.ErrControllerHalted) {
					t.Fatalf("mid-epoch crash budget %d: err = %v, want ErrControllerHalted", fc.crashBudget, err)
				}
				run.HaltAttempt = ct.Attempts()
			}
			lease.Close()
			if err := tb.Ctl.ReleaseState(); err != nil {
				t.Fatal(err)
			}
		}
		if fc.corrupt != nil {
			if err := fc.corrupt(siteDir(1)); err != nil {
				t.Fatal(err)
			}
		}
		start := time.Now()
		for i := 0; i < fc.maxTicks && prom == nil; i++ {
			run.DetectTicks++
			prom = tick()
		}
		if detect := time.Since(start); prom != nil && detect >= tePeriod {
			t.Errorf("detection + hand-off took %v, recovery bound is one TE period (%v)", detect, tePeriod)
		}
	}

	switch {
	case fc.wantPromoted == 0:
		if prom != nil || reg.Counter("wan.failover.promotions").Value() != 0 {
			t.Fatalf("unexpected promotion: %+v", prom)
		}
		// Degradation ladder floor: with no candidate left, the agents keep
		// the last installed plan and traffic keeps routing.
		if got := agentRates(tb); !reflect.DeepEqual(got, installed) {
			t.Errorf("agents lost their installed plan with no promotion: %v", got)
		}
	case prom == nil:
		t.Fatalf("no promotion within %d ticks", fc.maxTicks)
	default:
		if prom.Elapsed >= tePeriod {
			t.Errorf("promotion alone took %v, bound is %v", prom.Elapsed, tePeriod)
		}
		run.Promoted = prom.SiteID
		// A cold recovery leaves the promoted lineage at epoch 0. No row
		// loses a claim before this one, so the claim and re-assert
		// counters are this promotion's.
		run.Epoch = prom.Ctl.Epoch()
		run.Warm = run.Epoch > 0
		run.MirrorMatch = prom.MirrorMatch
		run.Reasserted = reg.Counter("wan.failover.reasserts").Value() == 1
		run.Degraded = reg.Counter("wan.georep.claim_degraded").Value()+reg.Counter("wan.failover.reassert_errors").Value() > 0
		run.Resyncs = prom.Resyncs

		if fc.secondClaim {
			// The second claimant's lease has lapsed too, so the claim is
			// locally legal — only the agents' equal-generation tie-break can
			// stop it, and must.
			if _, cerr := ss.Promote(2); !errors.Is(cerr, wan.ErrClaimFenced) {
				t.Fatalf("second claimant: err = %v, want ErrClaimFenced", cerr)
			}
			run.FencedClaims++
		}
		if fc.leaderLives {
			// The superseded leader runs a full epoch. Every state-bearing RPC
			// it sends is stale-generation; no agent may install its plan.
			pre := agentRates(tb)
			if _, zerr := tb.RunScenario(7); zerr != nil {
				run.ZombieErr = zerr.Error()
			}
			if got := agentRates(tb); !reflect.DeepEqual(got, pre) {
				t.Errorf("an agent installed a stale-generation plan from the superseded leader: %v want %v", got, pre)
			}
		}

		// Adopt the promoted lineage, verify convergence, run its next epoch
		// (warm or cold).
		zombie := tb.AdoptPromoted(prom.Ctl)
		t.Cleanup(func() { zombie.Close() })
		if run.Reasserted {
			want := prom.Ctl.LastGoodRates()
			for _, a := range tb.Agents {
				if got := a.Rates(); !reflect.DeepEqual(got, want) {
					t.Errorf("agent %s not converged to the re-asserted plan: %v want %v", a.Name, got, want)
				}
			}
		}
		if _, err := tb.RunScenario(7); err != nil {
			t.Fatalf("post-failover epoch: %v", err)
		}

		// Zombie fence probe: the predecessor's surviving sockets come back
		// to life (Disarm models its network returning) and every write must
		// bounce off the generation fence without mutating agent state.
		ct.Disarm()
		pre := agentRates(tb)
		if _, err := zombie.UpdateRates(map[string]float64{"t0": 12345}); err == nil {
			t.Error("zombie leader's post-promotion write was accepted")
		}
		if got := agentRates(tb); !reflect.DeepEqual(got, pre) {
			t.Errorf("agent state mutated by a fenced zombie write: %v want %v", got, pre)
		}
		for _, a := range tb.Agents {
			run.Fenced += a.FenceRejections()
		}
		if run.Fenced == 0 {
			t.Error("no agent recorded a fence rejection for the zombie probe")
		}
	}

	// Shipping accounting identity: every attempt resolved to exactly one of
	// acked or resent, nothing left inflight.
	rs := ss.ReplStats()
	if rs.Shipped != rs.Acked+rs.Resent || rs.Inflight != 0 {
		t.Errorf("accounting identity violated: shipped=%d acked=%d resent=%d inflight=%d",
			rs.Shipped, rs.Acked, rs.Resent, rs.Inflight)
	}
	run.Shipped, run.Acked, run.Resent = rs.Shipped, rs.Acked, rs.Resent

	// Row expectations.
	if run.Promoted != fc.wantPromoted {
		t.Errorf("promoted site = %d, want %d", run.Promoted, fc.wantPromoted)
	}
	if fc.wantPromoted != 0 {
		if run.Warm != fc.wantWarm || run.Epoch != fc.wantEpoch {
			t.Errorf("recovery warm=%v epoch=%d, want warm=%v epoch=%d",
				run.Warm, run.Epoch, fc.wantWarm, fc.wantEpoch)
		}
		if run.MirrorMatch != fc.wantMirror {
			t.Errorf("mirror match = %v, want %v", run.MirrorMatch, fc.wantMirror)
		}
		if run.Reasserted != fc.wantReassert {
			t.Errorf("reasserted = %v, want %v", run.Reasserted, fc.wantReassert)
		}
		if run.Resyncs < fc.wantMinResyncs {
			t.Errorf("promoted site re-syncs = %d, want >= %d", run.Resyncs, fc.wantMinResyncs)
		}
	}
	if run.FencedClaims != fc.wantFenced {
		t.Errorf("fenced claims = %d, want %d", run.FencedClaims, fc.wantFenced)
	}

	run.Events = log.Events()
	for _, l := range injected {
		for _, h := range l.inj.History() {
			run.Faults = append(run.Faults, l.name+":"+h)
		}
	}
	run.Rates = agentRates(tb)
	run.Status = ss.Status()
	run.Admission = tb.LastAdmission()
	// State-directory digests: replicated truth must be byte-identical
	// across runs, not just behaviorally similar.
	for id := 1; id <= fc.sites; id++ {
		run.DirHashes = append(run.DirHashes, hashDir(t, siteDir(id)))
	}
	run.DirHashes = append(run.DirHashes, hashDir(t, dir))
	return run
}

// failoverMatrix is the F1-F14 failure-injection matrix. F1-F9 are the
// in-site rows (a site on loopback whose lease equals the old miss
// threshold), F10-F14 stress the replication plane. Rows whose injection
// point moved when the shared-directory standby was folded into SiteSet:
//
//   - F3/F4 kill standbys with SiteSet.CrashSite: the site stops applying
//     and heartbeating and is skipped by elections.
//   - F6/F7 corrupt the directory the claimant recovers from, which is now
//     site 1's own replica rather than the leader's: promotion over a torn
//     (F6) or wiped (F7) local store.
//   - F5 no longer bounces off a flock. The leader lives, site 1's detector
//     is partitioned, its lease runs out, and it claims and wins at the
//     agents: one unnecessary failover, bounded by the lease. The row asserts
//     the safety property instead — every later write of the superseded
//     leader is fenced and no agent installs a stale-generation plan.
var failoverMatrix = []failoverCase{
	{
		// F1: clean leader death between epochs; the lowest site promotes
		// warm with an exact mirror and re-installs the plan.
		name: "F1_clean_leader_crash", sites: 2, leaseTicks: 2, epochs: 1, crashBudget: -1, maxTicks: 5,
		wantPromoted: 1, wantWarm: true, wantEpoch: 1, wantMirror: true, wantReassert: true,
	},
	{
		// F2: kill -9 partway through epoch 2's RPC fan-out; the un-journaled
		// epoch is lost and the fleet converges back to epoch 1's plan.
		name: "F2_crash_mid_epoch", sites: 2, leaseTicks: 2, epochs: 1, crashBudget: 2, maxTicks: 5,
		wantPromoted: 1, wantWarm: true, wantEpoch: 1, wantMirror: true, wantReassert: true,
	},
	{
		// F3: site 1 is already dead when the leader dies; the next live
		// site in ID order takes over.
		name: "F3_first_standby_dead", sites: 2, leaseTicks: 2, crashSites: []int{1},
		epochs: 1, crashBudget: -1, maxTicks: 5,
		wantPromoted: 2, wantWarm: true, wantEpoch: 1, wantMirror: true, wantReassert: true,
	},
	{
		// F4: every site is dead — the ladder's floor: no promotion, and the
		// agents keep routing on the last installed plan.
		name: "F4_all_standbys_dead", sites: 2, leaseTicks: 2, crashSites: []int{1, 2},
		epochs: 1, crashBudget: -1, maxTicks: 4,
		wantPromoted: 0,
	},
	{
		// F5: site 1's failure detector is partitioned from the lease while
		// the leader is alive and healthy. Its lease runs out, it claims, and
		// the agents hand it the fleet; the old leader's whole next epoch and
		// the zombie probe must bounce off the fence. Never two leaders.
		name: "F5_partition_double_leader", sites: 2, leaseTicks: 2, epochs: 1, crashBudget: -1,
		hbSpec:      map[int]Spec{1: {Seed: 99, Partition: 1, PartitionRPCs: 1 << 20}},
		leaderLives: true, maxTicks: 5,
		wantPromoted: 1, wantWarm: true, wantEpoch: 1, wantMirror: true, wantReassert: true,
	},
	{
		// F6: site 1's final journal append is torn; its mirror is ahead of
		// its durable truth, so promotion flags the mismatch and converges
		// the fleet onto the last DURABLE epoch.
		name: "F6_torn_journal_tail", sites: 2, leaseTicks: 2, epochs: 2, crashBudget: -1,
		corrupt: func(dir string) error { return TornJournalTail(dir, 5) }, maxTicks: 5,
		wantPromoted: 1, wantWarm: true, wantEpoch: 1, wantMirror: false, wantReassert: true,
	},
	{
		// F7: total storage corruption at site 1 (every state file's magic
		// wiped). The promoted site comes up cold — but still fenced, because
		// the generation floor comes from its lease and the file names — and
		// rebuilds by epoch.
		name: "F7_wiped_state_files", sites: 2, leaseTicks: 2, epochs: 1, crashBudget: -1,
		corrupt: WipeStateMagic, maxTicks: 5,
		wantPromoted: 1, wantWarm: false, wantEpoch: 0, wantMirror: false, wantReassert: false,
	},
	{
		// F8: drop + delay chaos on the promoted controller's agent links
		// during the fence probe and re-assert; per-RPC retries ride it out
		// and the hand-off still completes deterministically.
		name: "F8_chaos_during_reassert", sites: 2, leaseTicks: 2, epochs: 1, crashBudget: -1,
		agentSpec: Spec{Seed: 4321, Drop: 0.10, DelayProb: 0.3,
			DelayMin: 200 * time.Microsecond, DelayMax: time.Millisecond},
		maxTicks:     5,
		wantPromoted: 1, wantWarm: true, wantEpoch: 1, wantMirror: true, wantReassert: true,
	},
	{
		// F9: storm + failover. The leader dies mid-epoch while a
		// degradation storm has a second fiber calibrated high and the
		// class-aware ladder is admitting per tier; the promoted site
		// replays the same storm reaction, and the per-class admission
		// decisions (captured in Admission and the event lines) must be
		// bit-identical on replay.
		name: "F9_storm_failover", sites: 2, leaseTicks: 2, epochs: 1, crashBudget: 2, maxTicks: 5,
		classes:      te.DefaultClassSpec(),
		storm:        []core.DegradationSignal{{Fiber: 1, PNN: 0.7}},
		wantPromoted: 1, wantWarm: true, wantEpoch: 1, wantMirror: true, wantReassert: true,
	},
	{
		// F10: site 1's replication stream drops half its frames while the
		// leader-side buffer retains a single record, so every missed ship
		// puts the site behind the buffer and forces a snapshot re-sync. The
		// lagging site must be re-synced BEFORE it re-asserts: the promoted
		// plan is the replicated truth, not a stale prefix.
		name: "F10_lagging_site_resync", sites: 2, leaseTicks: 3, epochs: 4, retain: 1,
		shipSpec:    map[int]Spec{1: {Seed: 7, Drop: 0.5}},
		crashBudget: -1, maxTicks: 8,
		wantPromoted: 1, wantWarm: true, wantEpoch: 4, wantMirror: true, wantReassert: true,
		wantMinResyncs: 1,
	},
	{
		// F11: full partition, two claimants. The leader is alive but cut
		// off from the lease endpoint and every site; both sites' leases
		// lapse. Site 1 wins the claim; site 2's independent claim carries
		// the same floored generation and must lose the agents' named
		// tie-break; the partitioned zombie's full epoch must not install a
		// single stale-generation rate.
		name: "F11_partition_two_claimants", sites: 2, leaseTicks: 3, epochs: 2,
		crashBudget: -1, leaderLives: true, cutLeader: true, secondClaim: true, maxTicks: 8,
		wantPromoted: 1, wantWarm: true, wantEpoch: 2, wantMirror: true, wantReassert: true,
		wantFenced: 1,
	},
	{
		// F12: promotion racing a live solve epoch. The leases lapse while
		// the leader is healthy mid-fan-out; site 1 claims at an exact point
		// inside the leader's RPC sequence. The zombie finishes its epoch on
		// the degradation ladder and every post-claim write it sends is
		// fenced.
		name: "F12_promotion_races_live_epoch", sites: 2, leaseTicks: 3, epochs: 1,
		crashBudget: -1, hookOffset: 3,
		wantPromoted: 1, wantWarm: true, wantEpoch: 1, wantMirror: true, wantReassert: true,
	},
	{
		// F13: replication-stream corruption during a degradation storm with
		// SLO classes active — composes the admission ladder with cross-site
		// shipping. Corrupted frames are caught by the receiver's CRC, nacked
		// into snapshot re-syncs, and the promoted site still replays the
		// storm's per-class admission decisions bit-identically.
		name: "F13_corrupt_stream_storm", sites: 2, leaseTicks: 3, epochs: 3,
		shipSpec:    map[int]Spec{1: {Seed: 4242, Corrupt: 0.6}},
		crashBudget: -1, maxTicks: 8,
		classes:      te.DefaultClassSpec(),
		storm:        []core.DegradationSignal{{Fiber: 1, PNN: 0.7}},
		wantPromoted: 1, wantWarm: true, wantEpoch: 3, wantMirror: true, wantReassert: true,
		wantMinResyncs: 1,
	},
	{
		// F14: snapshot re-sync under load. Rapid epochs against a one-record
		// buffer with both ship streams dropping and delaying, then a
		// mid-epoch leader kill: sites live mostly off snapshot re-syncs, and
		// promotion still lands inside one TE period with exact accounting.
		name: "F14_resync_under_load", sites: 2, leaseTicks: 3, epochs: 6, retain: 1,
		shipSpec: map[int]Spec{
			1: {Seed: 11, Drop: 0.4},
			2: {Seed: 12, Drop: 0.4, DelayProb: 0.2, DelayMin: 200 * time.Microsecond, DelayMax: time.Millisecond},
		},
		crashBudget: 2, maxTicks: 8,
		wantPromoted: 1, wantWarm: true, wantEpoch: 6, wantMirror: true, wantReassert: true,
		wantMinResyncs: 1,
	},
}

// runMatrixRows runs each row twice and requires the two traces to be
// bit-identical: same event order, same fault history, same halt point,
// same final plans, byte-identical state directories — the replay evidence
// that a failover found in CI reproduces locally from its seeds.
func runMatrixRows(t *testing.T, rows []failoverCase) {
	for _, fc := range rows {
		t.Run(fc.name, func(t *testing.T) {
			a := runFailoverScenario(t, fc)
			b := runFailoverScenario(t, fc)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("row does not replay bit-identically:\n run A: %+v\n run B: %+v", a, b)
			}
		})
	}
}

// inSiteRows is how many leading rows of failoverMatrix (F1-F9) are the
// in-site ones; the two entry points below only split the one table so CI
// can name and shard them.
const inSiteRows = 9

// TestFailoverMatrix runs the in-site rows F1-F9 of the one matrix.
func TestFailoverMatrix(t *testing.T) { runMatrixRows(t, failoverMatrix[:inSiteRows]) }

// TestGeoFailoverMatrix runs the replication-plane rows F10-F14 of the
// same matrix through the same runner.
func TestGeoFailoverMatrix(t *testing.T) { runMatrixRows(t, failoverMatrix[inSiteRows:]) }
