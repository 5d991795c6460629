package experiments

import (
	"fmt"
	"io"
	"time"

	"prete/internal/core"
	"prete/internal/obs"
	"prete/internal/optical"
	"prete/internal/routing"
	"prete/internal/te"
	"prete/internal/topology"
	"prete/internal/wan"
)

func init() {
	register("fig11", "Testbed latency breakdown and tunnel-update scaling", fig11)
	register("tab3", "Network topologies used in the simulations", tab3)
	register("fig237", "The three-node illustrative example (Figs 2, 3, 7)", fig237)
}

// fastSwitch is the switch timing of the control-plane sweeps (chaos,
// failover, georep, warmrestart): fast enough that a cell runs in
// milliseconds.
var fastSwitch = wan.SwitchConfig{
	InstallLatency: 3 * time.Millisecond,
	RateLatency:    300 * time.Microsecond,
	MaxTunnels:     20000,
}

// newTestbed starts the §5 loopback testbed with cfg's switches, the
// controller dialing through tr, a fixed 0.8 failure prediction, each TE
// solve under opts.Budget and the controller's series in reg.
func newTestbed(opts Options, cfg wan.SwitchConfig, tr wan.Transport, reg *obs.Registry) (*wan.Testbed, error) {
	tb, err := wan.NewTestbedTransport(cfg, func(optical.Features) float64 { return 0.8 }, tr)
	if err != nil {
		return nil, err
	}
	tb.SolveUnits = opts.Budget
	tb.Ctl.Metrics = reg
	return tb, nil
}

// foldCounters adds the named counters of a cell's own registry into
// opts.Metrics, when it is set, so a sweep's series sum across its cells.
func foldCounters(opts Options, reg *obs.Registry, names ...string) {
	if opts.Metrics == nil {
		return
	}
	for _, name := range names {
		opts.Metrics.Counter(name).Add(reg.Counter(name).Value())
	}
}

// fig11 runs the §5 loopback testbed.
func fig11(w io.Writer, opts Options) error {
	cfg := wan.DefaultSwitchConfig()
	if opts.Quick {
		cfg.InstallLatency = 3 * time.Millisecond
		cfg.RateLatency = 300 * time.Microsecond
	}
	tb, err := newTestbed(opts, cfg, wan.TCPTransport{}, opts.Metrics)
	if err != nil {
		return err
	}
	defer tb.Close()
	timing, err := tb.RunScenario(opts.Seed)
	if err != nil {
		return err
	}
	header(w, "stage", "latency_ms")
	fmt.Fprintf(w, "detection\t%.2f\n", ms(timing.Detection))
	fmt.Fprintf(w, "model_inference\t%.2f\n", ms(timing.Inference))
	fmt.Fprintf(w, "tunnel_update\t%.2f\n", ms(timing.TunnelUpdate))
	fmt.Fprintf(w, "scenario_regen\t%.2f\n", ms(timing.ScenarioRegen))
	fmt.Fprintf(w, "te_compute\t%.2f\n", ms(timing.TECompute))
	fmt.Fprintf(w, "rate_install\t%.2f\n", ms(timing.RateInstall))
	fmt.Fprintf(w, "total\t%.2f\n", ms(timing.Total()))
	fmt.Fprintln(w, "# paper Fig 11a: end-to-end < 300 ms; tunnel update dominates")

	counts := []int{1, 5, 10, 20}
	scaling, err := wan.MeasureInstallScaling(cfg, counts)
	if err != nil {
		return err
	}
	header(w, "tunnels", "install_time_ms")
	for _, n := range counts {
		fmt.Fprintf(w, "%d\t%.1f\n", n, ms(scaling[n]))
	}
	fmt.Fprintln(w, "# paper Fig 11b: linear, ~5 s for 20 tunnels on production gear")
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tab3 prints the Table 3 topology statistics.
func tab3(w io.Writer, opts Options) error {
	header(w, "topology", "#fibers", "#IP_links", "#tunnels", "#traffic_matrix")
	for _, name := range []string{"IBM", "B4", "TWAN"} {
		net, err := topology.ByName(name)
		if err != nil {
			return err
		}
		ts, err := routing.BuildTunnels(net, routing.Flows(net), 4)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", name, len(net.Fibers), len(net.Links), ts.NumTunnels(), 24)
	}
	fmt.Fprintln(w, "# paper: IBM 23/85/340/24, B4 19/52/208/24, TWAN O(50)/O(100)/O(100)/24")
	return nil
}

// fig237 reproduces the illustrative §2.2/§3.3 example on the three-link
// triangle: classic TeaVaR's joint-coverage admissible traffic (10 units),
// the oracle's 20 units, and PreTE's post-cut throughput via its reactive
// tunnel.
func fig237(w io.Writer, opts Options) error {
	p := [3]float64{0.005, 0.009, 0.001} // s1s2, s1s3, s2s3

	// (Fig 2b) Classic TeaVaR with joint coverage: maximize b1 + b2 where
	// flow s1s2 rides its direct tunnel (x <= 10) and flow s1s3 splits
	// across s1s3 (y1) and s1s2s3 (y2), subject to x + y2 <= 10, and the
	// probability that BOTH flows see no loss >= 99%.
	bestTotal, bestX, bestY1, bestY2 := 0.0, 0.0, 0.0, 0.0
	jointAvail := func(x, y1, y2 float64) float64 {
		var total float64
		for mask := 0; mask < 8; mask++ {
			up := [3]bool{mask&1 == 0, mask&2 == 0, mask&4 == 0}
			prob := 1.0
			for i := 0; i < 3; i++ {
				if up[i] {
					prob *= 1 - p[i]
				} else {
					prob *= p[i]
				}
			}
			flow1 := 0.0
			if up[0] {
				flow1 = x
			}
			flow2 := 0.0
			if up[1] {
				flow2 += y1
			}
			if up[0] && up[2] {
				flow2 += y2
			}
			if flow1 >= x-1e-9 && flow2 >= y1+y2-1e-9 {
				total += prob
			}
		}
		return total
	}
	const step = 0.5
	for x := 0.0; x <= 10; x += step {
		for y1 := 0.0; y1 <= 10; y1 += step {
			for y2 := 0.0; x+y2 <= 10 && y2 <= 10; y2 += step {
				if jointAvail(x, y1, y2) >= 0.99 && x+y1+y2 > bestTotal {
					bestTotal, bestX, bestY1, bestY2 = x+y1+y2, x, y1, y2
				}
			}
		}
	}
	fmt.Fprintf(w, "(Fig 2b) TeaVaR joint-coverage optimum: total %.0f units (x=%.1f, y1=%.1f, y2=%.1f); paper: 10 units\n",
		bestTotal, bestX, bestY1, bestY2)

	// (Fig 3b) Oracle knowing s1s2 will not fail: set p0 = 0 and re-search.
	pSave := p[0]
	p[0] = 0
	oracleTotal := 0.0
	for x := 0.0; x <= 10; x += step {
		for y1 := 0.0; y1 <= 10; y1 += step {
			for y2 := 0.0; x+y2 <= 10 && y2 <= 10; y2 += step {
				if jointAvail(x, y1, y2) >= 0.99 && x+y1+y2 > oracleTotal {
					oracleTotal = x + y1 + y2
				}
			}
		}
	}
	p[0] = pSave
	fmt.Fprintf(w, "(Fig 3b) Oracle with future knowledge of s1s2: total %.0f units; paper: 20 units\n", oracleTotal)

	// (Fig 7) PreTE on the degradation of s1s2: establish s1->s3->s2 and
	// keep 10 units through the actual cut; TeaVaR's rate adaptation keeps
	// only flow s1s3's surviving tunnel (Fig 2c: 5 units).
	// The Fig 2a network with the paper's sparse tunnel table: one tunnel
	// for s1s2, so the degradation triggers Algorithm 1.
	net, err := topology.Triangle(10)
	if err != nil {
		return err
	}
	ts, err := routing.BuildTunnels(net, []routing.Flow{{ID: 0, Src: 0, Dst: 1}, {ID: 1, Src: 0, Dst: 2}}, 1)
	if err != nil {
		return err
	}
	prete := core.New()
	budgeted(prete.Opt, opts)
	ep, err := prete.PlanEpoch(core.EpochInput{
		Net: net, Tunnels: ts, Demands: te.Demands{5, 5}, Beta: 0.99,
		PI:      []float64{p[0], p[1], p[2]},
		Signals: []core.DegradationSignal{{Fiber: 0, PNN: 0.9}},
	})
	if err != nil {
		return err
	}
	cut := topology.FiberSetOf(0)
	preThroughput := te.DeliveredUnder(ep.Plan, 0, 5, cut) + te.DeliveredUnder(ep.Plan, 1, 5, cut)

	teavar := core.NewTeaVar()
	budgeted(teavar.Opt, opts)
	tvEp, err := teavar.PlanEpoch(core.EpochInput{
		Net: net, Tunnels: ts, Demands: te.Demands{5, 5}, Beta: 0.99,
		PI: []float64{p[0], p[1], p[2]},
	})
	if err != nil {
		return err
	}
	tvThroughput := te.DeliveredUnder(tvEp.Plan, 0, 5, cut) + te.DeliveredUnder(tvEp.Plan, 1, 5, cut)
	fmt.Fprintf(w, "(Fig 7b) post-cut throughput: PreTE %.0f units vs TeaVaR %.0f units; paper: 10 vs 5\n",
		preThroughput, tvThroughput)
	return nil
}
