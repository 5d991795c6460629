package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"prete/internal/fault"
	"prete/internal/obs"
	"prete/internal/persist"
	"prete/internal/routing"
	"prete/internal/topology"
	"prete/internal/wan"
)

func init() {
	register("warmrestart", "Controller crash-restart sweep: plan availability and time-to-first-valid-plan, cold vs warm recovery", warmrestart)
}

// warmrestart sweeps the crash point within a TE epoch (how many RPCs the
// epoch completed before the controller died) against the recovery mode
// (cold: no state directory; warm: the journal under -state-dir)
// and reports, per cell, whether the restarted controller had a valid plan
// before re-running the pipeline (plan_avail) and its time-to-first-valid-
// plan (ttfvp_ms: warm = recover + re-assert the journaled last-good rates;
// cold = a full reaction epoch from scratch). A second table journals a
// B4-scale state and times recovery against the one-TE-period bound.
func warmrestart(w io.Writer, opts Options) error {
	// The unfaulted triangle epoch issues 4 RPCs (1 tunnel install + 3 rate
	// updates): crashing after 0..3 completed attempts covers "immediately",
	// "mid-install", and "mid-rate-push".
	crashRPCs := []int64{0, 1, 2, 3}
	if opts.Quick {
		crashRPCs = []int64{0, 2}
	}
	header(w, "crash_rpc", "mode", "plan_avail", "epoch", "records", "recovery_ms", "ttfvp_ms")
	for _, cp := range crashRPCs {
		for _, warm := range []bool{false, true} {
			cell, err := warmrestartCell(opts, cp, warm)
			if err != nil {
				return err
			}
			mode := "cold"
			if warm {
				mode = "warm"
			}
			avail := 0
			if cell.planAvail {
				avail = 1
			}
			fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%.2f\t%.2f\n",
				cp, mode, avail, cell.epoch, cell.records, ms(cell.recovery), ms(cell.ttfvp))
		}
	}
	fmt.Fprintln(w, "# plan_avail: the restarted controller held a fleet-consistent plan before running any epoch")
	fmt.Fprintln(w, "# ttfvp_ms: time to first valid plan after restart (warm: recover+re-assert; cold: full epoch); wall clock, varies run to run")
	return warmrestartB4(w, opts)
}

type warmrestartCellResult struct {
	planAvail bool
	epoch     uint64
	records   int
	recovery  time.Duration
	ttfvp     time.Duration
}

// warmrestartCell runs one crash-restart trace: epoch 1 completes, the
// controller dies after crashRPC attempts of epoch 2, restarts, and (warm)
// recovers its journal or (cold) starts empty.
func warmrestartCell(opts Options, crashRPC int64, warm bool) (warmrestartCellResult, error) {
	reg := obs.NewRegistry()
	ct := fault.NewCtlCrash(wan.TCPTransport{}, 0, reg)
	ct.Disarm()
	tb, err := newTestbed(opts, fastSwitch, ct, reg)
	if err != nil {
		return warmrestartCellResult{}, err
	}
	defer tb.Close()
	var dir string
	if warm {
		dir, err = os.MkdirTemp("", "prete-warmrestart-*")
		if err != nil {
			return warmrestartCellResult{}, err
		}
		defer os.RemoveAll(dir)
		if _, err := tb.OpenState(dir); err != nil {
			return warmrestartCellResult{}, err
		}
	}
	if _, err := tb.RunScenario(opts.Seed); err != nil {
		return warmrestartCellResult{}, fmt.Errorf("warmrestart epoch 1: %w", err)
	}
	ct.Arm(crashRPC)
	if _, err := tb.RunScenario(opts.Seed); err == nil {
		return warmrestartCellResult{}, fmt.Errorf("warmrestart: crash after %d RPCs did not halt the epoch", crashRPC)
	}
	ct.Disarm()
	if err := tb.RestartController(ct); err != nil {
		return warmrestartCellResult{}, err
	}
	tb.Ctl.Metrics = reg
	var res warmrestartCellResult
	start := time.Now()
	if warm {
		rec, err := tb.OpenState(dir)
		if err != nil {
			return warmrestartCellResult{}, err
		}
		res.epoch = rec.Epoch
		res.records = rec.RecordsReplayed
		res.recovery = rec.Elapsed
	}
	res.planAvail = tb.Ctl.LastGoodRates() != nil
	if res.planAvail {
		// Warm path: the journaled plan was recovered and re-asserted
		// fleet-wide by OpenState — the fleet is valid now.
		res.ttfvp = time.Since(start)
	} else {
		// Cold path: nothing to resume; the first valid plan arrives when a
		// full reaction epoch completes.
		if _, err := tb.RunScenario(opts.Seed); err != nil {
			return warmrestartCellResult{}, fmt.Errorf("warmrestart cold recovery epoch: %w", err)
		}
		res.ttfvp = time.Since(start)
	}
	foldCounters(opts, reg,
		"wan.recovery.runs", "wan.recovery.warm", "wan.recovery.cold",
		"wan.recovery.records", "wan.rpc.halted", "fault.ctlcrash.halts",
		"persist.appends")
	return res, nil
}

// warmrestartB4 journals a B4-scale controller state (Table 3: 12 nodes,
// every directed IP adjacency a flow, 4 tunnels per flow) across enough
// epochs to fill journals of 8 records, then times recovery. The
// acceptance bound is one TE period: production TE runs minutes-scale
// periods, so recovery must land far inside even an aggressive one.
func warmrestartB4(w io.Writer, opts Options) error {
	const tePeriod = 10 * time.Second // aggressive lower bound for a TE period
	net, err := topology.B4()
	if err != nil {
		return err
	}
	flows := routing.Flows(net)
	ts, err := routing.BuildTunnels(net, flows, 4)
	if err != nil {
		return err
	}
	state := wan.EpochState{
		Rates: make(map[string]float64, len(ts.Tunnels)),
		Probs: make([]float64, len(net.Fibers)),
	}
	for _, tn := range ts.Tunnels {
		state.Rates[fmt.Sprintf("t%d", tn.ID)] = 50
	}
	for i := range state.Probs {
		state.Probs[i] = 0.005
	}
	epochs := 32
	if opts.Quick {
		epochs = 8
	}
	dir, err := os.MkdirTemp("", "prete-warmrestart-b4-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := persist.Open(dir, persist.Options{CompactEvery: 8})
	if err != nil {
		return err
	}
	var bytes int
	for e := 1; e <= epochs; e++ {
		state.Epoch = uint64(e)
		b, err := json.Marshal(&state)
		if err != nil {
			st.Close()
			return err
		}
		bytes = len(b)
		if err := st.Append(uint64(e), b); err != nil {
			st.Close()
			return err
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	start := time.Now()
	rec, err := persist.Recover(dir)
	elapsed := time.Since(start)
	if err != nil {
		return err
	}
	header(w, "topology", "tunnels", "epochs", "state_bytes", "recover_ms", "te_period_ms", "within_period")
	within := "yes"
	if elapsed >= tePeriod {
		within = "NO"
	}
	fmt.Fprintf(w, "B4\t%d\t%d\t%d\t%.2f\t%.0f\t%s\n",
		len(ts.Tunnels), epochs, bytes, ms(elapsed), ms(tePeriod), within)
	if rec.Seq != uint64(epochs) {
		return fmt.Errorf("warmrestart: B4 recovery returned epoch %d, want %d", rec.Seq, epochs)
	}
	return nil
}
