package experiments

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"prete/internal/fault"
	"prete/internal/obs"
	"prete/internal/wan"
)

func init() {
	register("failover", "Controller failover sweep: detection ticks, promotion time, and plan availability vs standby site count and crash point", failover)
	register("georep", "Cross-site replication sweep: promotion time, plan availability, and re-syncs vs replication-stream loss and retention lag", georep)
}

// haPeriod is the recovery bound both sweeps report against: an aggressive
// lower bound for a production TE period (§5 runs minutes).
const haPeriod = 10 * time.Second

// failover sweeps in-site controller hand-off: for each standby site count
// and leader crash point (clean death between epochs, or kill -9 after N
// RPCs of the next epoch), a leader journals an epoch while loopback
// standby sites apply its replicated journal; the leader then dies, the
// sites' two-tick leases run out, and the lowest site promotes — recovering
// its own replica under a fencing generation above everything its lease
// observed and re-asserting the last-good plan fleet-wide. Per cell the
// table reports which site won, how many detection ticks the election took,
// whether the promoted controller held a valid plan immediately
// (plan_avail), whether its mirror matched durable truth (mirror), and the
// promotion wall time against the one-TE-period recovery bound.
func failover(w io.Writer, opts Options) error {
	siteCounts := []int{1, 2}
	crashRPCs := []int64{-1, 2} // -1 = clean death between epochs
	if opts.Quick {
		siteCounts = []int{2}
	}
	header(w, "sites", "crash_rpc", "promoted", "detect_ticks", "plan_avail", "mirror", "promote_ms", "te_period_ms", "within_period")
	for _, n := range siteCounts {
		for _, cp := range crashRPCs {
			cell, err := haCell(opts, haCellConfig{sites: n, leaseTicks: 2, epochs: 1, ticksPerEpoch: 1, crashRPC: cp})
			if err != nil {
				return fmt.Errorf("failover: %w", err)
			}
			crash := "clean"
			if cp >= 0 {
				crash = fmt.Sprintf("%d", cp)
			}
			fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\t%.2f\t%.0f\t%s\n",
				n, crash, cell.promoted, cell.detectTicks, b2i(cell.planAvail), b2i(cell.mirrorMatch),
				ms(cell.promote), ms(haPeriod), cell.within())
		}
	}
	fmt.Fprintln(w, "# crash_rpc: clean = leader dies between epochs; N = killed after N RPCs of the next epoch (that epoch is lost)")
	fmt.Fprintln(w, "# plan_avail: the promoted controller re-asserted a journaled plan before running any epoch")
	fmt.Fprintln(w, "# mirror: the site's apply-path mirror matched the durably recovered state exactly")
	fmt.Fprintln(w, "# promote_ms: lease expiry to hand-off complete (recover + fence + re-assert); wall clock, varies run to run")
	return nil
}

// georep sweeps cross-site failover under replication stress: a leader
// journals epochs while two remote sites apply its CRC-framed stream into
// their own state directories, with the stream to site 1 dropping frames at
// the swept rate and the leader's replication buffer capped at the swept
// retention. The leader's lease endpoint then dies; the surviving sites'
// leases run out and the lowest site promotes from its own replica —
// re-syncing first (the newest record, appended past a hole) if the loss
// pushed it behind the retention window. Per cell the table adds to
// failover's columns the re-syncs the winner needed and the retried frames on the lossy stream.
func georep(w io.Writer, opts Options) error {
	drops := []float64{0, 0.3, 0.6}
	retains := []int{1, 64}
	if opts.Quick {
		drops = []float64{0, 0.6}
		retains = []int{1}
	}
	header(w, "drop", "retain", "promoted", "detect_ticks", "resyncs", "resent", "plan_avail", "mirror", "promote_ms", "te_period_ms", "within_period")
	for _, retain := range retains {
		for _, drop := range drops {
			// Several ticks per epoch model a TE period spanning multiple
			// replication rounds — a dropped frame is retried within the same
			// epoch, not a whole period later.
			cell, err := haCell(opts, haCellConfig{sites: 2, leaseTicks: 3, epochs: 3, ticksPerEpoch: 3, crashRPC: -1, drop: drop, retain: retain})
			if err != nil {
				return fmt.Errorf("georep: %w", err)
			}
			fmt.Fprintf(w, "%.1f\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.2f\t%.0f\t%s\n",
				drop, retain, cell.promoted, cell.detectTicks, cell.resyncs,
				cell.resent, b2i(cell.planAvail), b2i(cell.mirrorMatch), ms(cell.promote), ms(haPeriod), cell.within())
		}
	}
	fmt.Fprintln(w, "# drop: per-frame loss probability on the replication stream to site 1 (site 2's stream is clean)")
	fmt.Fprintln(w, "# retain: leader-side replication buffer in records; a site behind it re-syncs: the newest record, appended past a hole")
	fmt.Fprintln(w, "# resyncs: re-syncs the winning site applied over its standby lifetime")
	fmt.Fprintln(w, "# resent: frames the leader re-shipped after loss (shipped = acked + resent at quiesce)")
	fmt.Fprintln(w, "# promote_ms: lease expiry to hand-off complete (recover + fence + re-assert); wall clock, varies run to run")
	return nil
}

// haCellConfig is one cell of either sweep: how many sites stand by behind
// what lease, how much healthy replication precedes the failure, and what
// the failure is.
type haCellConfig struct {
	sites         int
	leaseTicks    uint64
	epochs        int     // healthy epochs before the leader dies
	ticksPerEpoch int     // replication rounds per healthy epoch
	crashRPC      int64   // >= 0: kill the leader this many RPCs into the next epoch; -1: clean death
	drop          float64 // per-frame loss on the replication stream to site 1
	retain        int     // leader-side replication buffer in records (0 = persist's default)
}

type haCellResult struct {
	promoted    int
	detectTicks int
	resyncs     int64
	resent      int64
	planAvail   bool
	mirrorMatch bool
	promote     time.Duration
}

func (r haCellResult) within() string {
	if r.promote >= haPeriod {
		return "NO"
	}
	return "yes"
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// haCell runs one failover trace: the healthy epochs replicate to every
// site, the leader dies at the configured crash point taking its lease
// endpoint with it, the site set ticks until a site's lease expires and it
// promotes, and the adopted lineage completes the next epoch.
func haCell(opts Options, c haCellConfig) (haCellResult, error) {
	var res haCellResult
	reg := obs.NewRegistry()
	ct := fault.NewCtlCrash(wan.TCPTransport{}, 0, reg)
	ct.Disarm()
	tb, err := newTestbed(opts, fastSwitch, ct, reg)
	if err != nil {
		return res, err
	}
	defer tb.Close()
	root, err := os.MkdirTemp("", "prete-ha-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(root)
	dir := filepath.Join(root, "leader")
	if _, err := tb.OpenState(dir); err != nil {
		return res, err
	}
	lease, err := wan.NewLeaseServer(tb.Ctl.Generation)
	if err != nil {
		return res, err
	}
	defer lease.Close()
	shipTo1 := wan.Transport(wan.TCPTransport{})
	if c.drop > 0 {
		inj, err := fault.NewInjector(fault.Spec{Seed: opts.Seed, Drop: c.drop}, reg)
		if err != nil {
			return res, err
		}
		shipTo1 = fault.NewTransport(wan.TCPTransport{}, inj)
	}
	ss, err := wan.NewSiteSet(dir, filepath.Join(root, "sites"), lease.Addr(), tb.AgentAddrs(), wan.SiteOptions{
		Sites:            c.sites,
		LeaseTicks:       c.leaseTicks,
		HeartbeatTimeout: 100 * time.Millisecond,
		RetainRecords:    c.retain,
		Ship: func(id int) wan.Transport {
			if id == 1 {
				return shipTo1
			}
			return wan.TCPTransport{}
		},
		Retry:   wan.RetryPolicy{MaxAttempts: 6, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond, Jitter: 0.5},
		Metrics: reg,
	})
	if err != nil {
		return res, err
	}
	defer ss.Close()

	for e := 0; e < c.epochs; e++ {
		if _, err := tb.RunScenario(opts.Seed); err != nil {
			return res, fmt.Errorf("epoch %d: %w", e+1, err)
		}
		for i := 0; i < c.ticksPerEpoch; i++ {
			if p, err := ss.Tick(); err != nil || p != nil {
				return res, fmt.Errorf("healthy tick: promotion=%v err=%v", p, err)
			}
		}
	}
	if c.crashRPC >= 0 {
		ct.Arm(c.crashRPC)
		if _, err := tb.RunScenario(opts.Seed); err == nil {
			return res, fmt.Errorf("crash after %d RPCs did not halt the epoch", c.crashRPC)
		}
	}
	// The lease endpoint dies with the leader; no lock is shared with the
	// sites, so detection is purely lease expiry.
	lease.Close()
	var prom *wan.SitePromotion
	for prom == nil {
		if res.detectTicks++; res.detectTicks > 16 {
			return res, errors.New("no promotion within 16 ticks")
		}
		prom, err = ss.Tick()
		if err != nil && !errors.Is(err, wan.ErrClaimFenced) {
			return res, err
		}
	}
	res.promoted = prom.SiteID
	res.resyncs = prom.Resyncs
	res.mirrorMatch = prom.MirrorMatch
	res.promote = prom.Elapsed
	res.planAvail = prom.Ctl.LastGoodRates() != nil
	res.resent = ss.ReplStats().Resent
	zombie := tb.AdoptPromoted(prom.Ctl)
	defer zombie.Close()
	if _, err := tb.RunScenario(opts.Seed); err != nil {
		return res, fmt.Errorf("post-promotion epoch: %w", err)
	}
	foldCounters(opts, reg,
		"wan.georep.ticks", "wan.georep.heartbeats", "wan.georep.misses",
		"wan.georep.elections", "wan.georep.site_resyncs", "wan.georep.resync_requests",
		"wan.failover.promotions", "wan.failover.reasserts",
		"wan.failover.mirror_match", "wan.failover.mirror_mismatch",
		"persist.repl.shipped", "persist.repl.acked", "persist.repl.resent",
		"persist.repl.resyncs", "persist.repl.tailed")
	return res, nil
}
