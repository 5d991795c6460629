package experiments

import (
	"fmt"
	"io"
	"time"

	"prete/internal/fault"
	"prete/internal/obs"
	"prete/internal/wan"
)

func init() {
	register("chaos", "Control-plane chaos sweep: reaction latency and plan availability vs injected RPC faults", chaos)
}

// chaos is the Fig 11-style stress companion: it replays the §5 reaction
// pipeline on the loopback testbed while a seeded fault injector perturbs
// the controller<->agent RPC stream, sweeping drop probability and added
// per-RPC delay. For every cell it reports the mean end-to-end reaction
// latency (and its delta against the fault-free baseline cell), the
// controller's retry/give-up counts, and the control plane's plan
// availability — the fraction of TE rounds that installed the freshly
// computed plan rather than degrading to the last good one. The fault
// decisions derive from (seed, peer), so any cell replays bit-identically.
func chaos(w io.Writer, opts Options) error {
	drops := []float64{0, 0.05, 0.10, 0.20}
	delays := []time.Duration{0, 10 * time.Millisecond, 50 * time.Millisecond}
	rounds := 5
	if opts.Quick {
		drops = []float64{0, 0.10}
		delays = []time.Duration{0, 10 * time.Millisecond}
		rounds = 3
	}
	header(w, "drop", "delay_ms", "rounds", "degraded", "retries", "giveups", "reaction_ms", "delta_ms", "plan_avail")
	baseline := -1.0
	for _, drop := range drops {
		for _, delay := range delays {
			cell, err := chaosCell(opts, drop, delay, rounds)
			if err != nil {
				return err
			}
			if baseline < 0 {
				baseline = cell.meanMS // first cell is (drop=0, delay=0)
			}
			fmt.Fprintf(w, "%.2f\t%.0f\t%d\t%d\t%d\t%d\t%.1f\t%+.1f\t%.2f\n",
				drop, ms(delay), rounds, cell.degraded, cell.retries, cell.giveups,
				cell.meanMS, cell.meanMS-baseline,
				1-float64(cell.degraded)/float64(rounds))
		}
	}
	fmt.Fprintln(w, "# plan_avail: fraction of TE rounds that installed the fresh plan (degraded rounds keep the last good plan; agents are never rate-less)")
	fmt.Fprintln(w, "# reaction_ms is wall clock and varies run to run; the installed plans and event order replay bit-identically from the seed")
	return nil
}

type chaosCellResult struct {
	meanMS   float64
	degraded int
	retries  int64
	giveups  int64
}

// chaosCell builds one faulted testbed and drives `rounds` reaction rounds
// through it.
func chaosCell(opts Options, drop float64, delay time.Duration, rounds int) (chaosCellResult, error) {
	spec := fault.Spec{Seed: opts.Seed, Drop: drop}
	if delay > 0 {
		spec.DelayProb = 1
		spec.DelayMin, spec.DelayMax = delay, delay
	}
	reg := obs.NewRegistry()
	inj, err := fault.NewInjector(spec, reg)
	if err != nil {
		return chaosCellResult{}, err
	}
	tb, err := newTestbed(opts, fastSwitch, fault.NewTransport(wan.TCPTransport{}, inj), reg)
	if err != nil {
		return chaosCellResult{}, err
	}
	defer tb.Close()
	tb.Ctl.Retry = wan.RetryPolicy{
		MaxAttempts: 5, BaseBackoff: time.Millisecond,
		MaxBackoff: 20 * time.Millisecond, Jitter: 0.5,
	}
	var res chaosCellResult
	var total time.Duration
	for r := 0; r < rounds; r++ {
		timing, err := tb.RunScenario(opts.Seed)
		if err != nil {
			return chaosCellResult{}, fmt.Errorf("chaos cell drop=%.2f delay=%v round %d: %w", drop, delay, r, err)
		}
		total += timing.Total()
		if timing.Degraded {
			res.degraded++
		}
	}
	res.meanMS = ms(total) / float64(rounds)
	res.retries = reg.Counter("wan.rpc.retries").Value()
	res.giveups = reg.Counter("wan.rpc.giveups").Value()
	// `prete-sim -exp chaos -metrics` lights up the wan.* and fault.*
	// namespaces.
	foldCounters(opts, reg,
		"wan.rpc.count", "wan.rpc.errors", "wan.rpc.retries", "wan.rpc.giveups",
		"wan.fallback.rounds", "wan.fallback.tunnel_rounds", "fault.rpcs")
	return res, nil
}
