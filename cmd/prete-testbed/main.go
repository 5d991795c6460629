// Command prete-testbed reproduces the §5 production-level testbed on
// loopback TCP: three switch agents, a VOA-scripted fiber event
// (healthy 0-65 s, degraded 65-110 s, cut at 110 s), and the full PreTE
// reaction pipeline, printing the Fig 11 latency breakdown.
//
//	prete-testbed            # production-like switch latencies (~250 ms/tunnel)
//	prete-testbed -fast      # millisecond-scale latencies for CI
//	prete-testbed -fast -metrics           # JSON metrics snapshot after the run
//	prete-testbed -debug-addr 127.0.0.1:0  # live /metrics + pprof while running
//	prete-testbed -fast -faults 'seed=7,drop=0.1,delay=1:50ms'  # chaos run
//	prete-testbed -fast -budget 20          # anytime TE solve: 20 work units
//	prete-testbed -budget 5000:150ms        # units + wall-clock safety net
//	prete-testbed -fast -state-dir /tmp/st -sites 2     # leader + 2 standby sites fed by journal replication
//
// The -faults spec injects deterministic controller<->agent RPC faults
// (drop, delay, duplicate, corrupt, partition, crash); see internal/fault
// for the full syntax. Identical -seed and -faults values replay the run
// bit-identically. The -budget spec bounds each TE solve (UNITS[:TIMEOUT],
// see core.ParseBudget); an expired budget installs the best anytime plan
// instead of blowing the TE period.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"prete/internal/core"
	"prete/internal/fault"
	"prete/internal/obs"
	"prete/internal/optical"
	"prete/internal/par"
	"prete/internal/te"
	"prete/internal/wan"
)

func main() {
	var (
		fast      = flag.Bool("fast", false, "millisecond-scale switch latencies")
		seed      = flag.Uint64("seed", 2025, "random seed")
		metrics   = flag.Bool("metrics", false, "print a JSON metrics snapshot after the run")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /debug/vars, and /debug/pprof on this address while running")
		faults    = flag.String("faults", "", "fault-injection spec, e.g. 'seed=7,drop=0.1,delay=0.5:10ms-50ms,crash=0.01:25' (empty = no faults)")
		budget    = flag.String("budget", "", "TE solve budget 'UNITS[:TIMEOUT]', e.g. '5000', '5000:150ms', ':2s' (empty = unlimited); units are deterministic, the timeout is a wall-clock safety net")
		stateDir  = flag.String("state-dir", "", "directory for crash-safe controller state (journaled snapshots); restarting with the same directory warm-restarts from the last journaled epoch (empty = stateless)")
		sites     = flag.Int("sites", 0, "standby sites (in-site or cross-site): each owns its own state directory under <state-dir>/sites/, fed by journal replication over the network, and would promote behind a time-bounded lease on leader death (requires -state-dir)")
		classes   = flag.String("classes", "", "SLO tier spec 'name:share:weight[:policy],...' or 'default' (lc:0.2:100:protect,std:0.5:10:defer,bulk:0.3:1:shed); per-class demands run the strict-priority classed solve and the predictive admission ladder (empty = classless)")
	)
	flag.Parse()

	classSpec, err := te.ParseClassSpec(*classes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "prete-testbed: -classes: %v\n", err)
		os.Exit(2)
	}

	if *sites < 0 {
		fmt.Fprintln(os.Stderr, "prete-testbed: -sites must be >= 0")
		os.Exit(2)
	}
	if *sites > 0 && *stateDir == "" {
		fmt.Fprintln(os.Stderr, "prete-testbed: -sites requires -state-dir (the replicated journal lives there)")
		os.Exit(2)
	}

	faultSpec, err := fault.ParseSpec(*faults)
	if err != nil {
		fmt.Fprintf(os.Stderr, "prete-testbed: -faults: %v\n", err)
		os.Exit(2)
	}
	solveUnits, solveTimeout, err := core.ParseBudget(*budget)
	if err != nil {
		fmt.Fprintf(os.Stderr, "prete-testbed: -budget: %v\n", err)
		os.Exit(2)
	}

	var reg *obs.Registry
	if *metrics || *debugAddr != "" || faultSpec.Active() {
		reg = obs.NewRegistry()
		reg.PublishExpvar("prete-testbed")
		par.SetMetrics(reg)
	}
	if *debugAddr != "" {
		addr, closeFn, err := obs.ServeDebug(*debugAddr, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prete-testbed: debug server: %v\n", err)
			os.Exit(1)
		}
		defer closeFn()
		fmt.Fprintf(os.Stderr, "prete-testbed: debug server on http://%s/metrics\n", addr)
	}

	cfg := wan.DefaultSwitchConfig()
	if *fast {
		cfg.InstallLatency = 3 * time.Millisecond
		cfg.RateLatency = 300 * time.Microsecond
	}
	// A fixed high prediction stands in for the trained NN here; run
	// examples/testbed for the version wired to a trained model.
	predict := func(f optical.Features) float64 { return 0.8 }
	var tr wan.Transport = wan.TCPTransport{}
	var inj *fault.Injector
	if faultSpec.Active() {
		inj, err = fault.NewInjector(faultSpec, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prete-testbed: %v\n", err)
			os.Exit(1)
		}
		tr = fault.NewTransport(tr, inj)
		fmt.Printf("fault injection: %s\n", faultSpec)
	}
	tb, err := wan.NewTestbedTransport(cfg, predict, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "prete-testbed: %v\n", err)
		os.Exit(1)
	}
	defer tb.Close()
	tb.SolveUnits = solveUnits
	tb.SolveTimeout = solveTimeout
	tb.Classes = classSpec
	if classSpec.Enabled() {
		fmt.Printf("SLO classes: %s\n", classSpec)
	}
	if *budget != "" {
		fmt.Printf("TE solve budget: %s\n", *budget)
	}
	// RPC counters and latency from the controller's round trips.
	tb.Ctl.Metrics = reg
	tb.Ctl.Log = wan.NewEventLog()

	if *stateDir != "" {
		rec, err := tb.OpenState(*stateDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prete-testbed: -state-dir: %v\n", err)
			os.Exit(1)
		}
		if rec.Warm {
			fmt.Printf("controller state: warm restart from epoch %d (gen %d, %d records, %.2f ms; last-good plan re-asserted)\n",
				rec.Epoch, rec.Generation, rec.RecordsReplayed, ms(rec.Elapsed))
		} else {
			fmt.Printf("controller state: cold start (gen %d)\n", rec.Generation)
		}
	}

	// Standby sites: each site applies the leader's journal stream into its
	// own directory under <state-dir>/sites/ and renews a time-bounded lease;
	// on leader death the lowest site would promote from its own replica,
	// fenced one generation above everything its lease saw. In a quiet run
	// they are a read-only side channel — the leader's behaviour and state
	// bytes are untouched.
	var siteSet *wan.SiteSet
	if *sites > 0 {
		siteLease, err := wan.NewLeaseServer(tb.Ctl.Generation)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prete-testbed: site lease: %v\n", err)
			os.Exit(1)
		}
		defer siteLease.Close()
		siteSet, err = wan.NewSiteSet(*stateDir, filepath.Join(*stateDir, "sites"), siteLease.Addr(), tb.AgentAddrs(), wan.SiteOptions{
			Sites:   *sites,
			Metrics: reg,
			Log:     tb.Ctl.Log,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "prete-testbed: -sites: %v\n", err)
			os.Exit(1)
		}
		defer siteSet.Close()
		fmt.Printf("controller replication: leader + %d standby site(s) under %s\n", *sites, filepath.Join(*stateDir, "sites"))
	}

	timing, err := tb.RunScenario(*seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "prete-testbed: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("PreTE reaction pipeline (Fig 11a):")
	fmt.Printf("  detection        %8.2f ms\n", ms(timing.Detection))
	fmt.Printf("  model inference  %8.2f ms\n", ms(timing.Inference))
	fmt.Printf("  tunnel update    %8.2f ms\n", ms(timing.TunnelUpdate))
	fmt.Printf("  scenario regen   %8.2f ms\n", ms(timing.ScenarioRegen))
	fmt.Printf("  TE compute       %8.2f ms", ms(timing.TECompute))
	if timing.SolveTruncated {
		fmt.Print("  (budget expired: anytime plan installed)")
	}
	fmt.Println()
	fmt.Printf("  rate install     %8.2f ms\n", ms(timing.RateInstall))
	fmt.Printf("  total            %8.2f ms\n", ms(timing.Total()))
	if inj != nil {
		fmt.Println("\nControl-plane degradation:")
		fmt.Printf("  faults injected  %8d (of %d faultable RPCs)\n",
			reg.Counter("fault.rpcs").Value()-noneCount(inj), reg.Counter("fault.rpcs").Value())
		fmt.Printf("  rpc retries      %8d\n", reg.Counter("wan.rpc.retries").Value())
		fmt.Printf("  rpc give-ups     %8d\n", reg.Counter("wan.rpc.giveups").Value())
		fmt.Printf("  fallback rounds  %8d (rates) / %d (tunnels)\n",
			reg.Counter("wan.fallback.rounds").Value(),
			reg.Counter("wan.fallback.tunnel_rounds").Value())
		if timing.Degraded {
			fmt.Println("  plan: DEGRADED — last good plan kept where the fresh one could not be installed")
		} else {
			fmt.Println("  plan: fresh plan fully installed despite injected faults")
		}
	}

	if dec := tb.LastAdmission(); dec != nil {
		fmt.Println("\nSLO-class admission (predictive ladder):")
		for _, td := range dec.Tiers {
			fmt.Printf("  %-6s %-9s offered %7.1f  admitted %7.1f  shed %7.1f  deferred %7.1f\n",
				td.Tier, td.Rung, td.Offered, td.Admitted, td.Shed, td.Deferred)
		}
	}

	if siteSet != nil {
		if _, err := siteSet.Tick(); err != nil {
			fmt.Fprintf(os.Stderr, "prete-testbed: site tick: %v\n", err)
			os.Exit(1)
		}
		rs := siteSet.ReplStats()
		fmt.Println("\nStandby site mirrors:")
		for _, st := range siteSet.Status() {
			warm := "cold"
			if st.Epoch > 0 {
				warm = fmt.Sprintf("warm @ epoch %d", st.Epoch)
			}
			fmt.Printf("  site %d  %s (applied seq %d, lease %d tick(s) left, %d snapshot re-sync(s))\n",
				st.ID, warm, st.Applied, st.LeaseRemaining, st.Resyncs)
		}
		fmt.Printf("  stream: %d shipped = %d acked + %d in flight (+%d resent)\n",
			rs.Shipped, rs.Acked, rs.Inflight, rs.Resent)
	}

	counts := []int{1, 5, 10, 20}
	scaling, err := wan.MeasureInstallScaling(cfg, counts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "prete-testbed: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("\nSerialized tunnel installation (Fig 11b):")
	for _, n := range counts {
		fmt.Printf("  %2d tunnels  %8.1f ms\n", n, ms(scaling[n]))
	}

	if *metrics {
		fmt.Println("\n== metrics ==")
		if err := reg.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "prete-testbed: metrics: %v\n", err)
			os.Exit(1)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// noneCount tallies the injector decisions that left the RPC untouched, so
// the summary can report how many RPCs were actually perturbed.
func noneCount(inj *fault.Injector) int64 {
	var n int64
	for _, e := range inj.History() {
		if strings.HasSuffix(e, ":none") {
			n++
		}
	}
	return n
}
