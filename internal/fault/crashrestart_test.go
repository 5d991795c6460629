package fault

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"prete/internal/obs"
	"prete/internal/optical"
	"prete/internal/wan"
)

// crashRun is the observable outcome of one crash-restart trace: epoch 1
// completes, the controller is killed partway through epoch 2, restarts
// (warm against a state directory, or cold without), and epoch 3 runs to
// completion.
type crashRun struct {
	Events           []string
	Faults           []string
	Rates            []map[string]float64
	HaltAttempt      int64
	PlanAfterRestart bool // controller knew a plan before re-running the pipeline
	Warm             bool
}

// runCrashRestartScenario drives the trace. stateDir "" = cold restart.
func runCrashRestartScenario(t *testing.T, spec Spec, workloadSeed uint64, crashBudget int64, stateDir string) crashRun {
	t.Helper()
	reg := obs.NewRegistry()
	inj, err := NewInjector(spec, reg)
	if err != nil {
		t.Fatal(err)
	}
	ct := NewCtlCrash(NewTransport(wan.TCPTransport{}, inj), 0, reg)
	ct.Disarm()
	tb, err := wan.NewTestbedTransport(fastSwitch(), func(f optical.Features) float64 { return 0.8 }, ct)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	tb.Ctl.Metrics = reg
	tb.Ctl.Log = new(wan.EventLog)
	tb.Ctl.Retry = wan.RetryPolicy{MaxAttempts: 6, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond, Jitter: 0.5}
	if stateDir != "" {
		if _, err := tb.OpenState(stateDir); err != nil {
			t.Fatal(err)
		}
	}
	// Epoch 1 completes (and, with a state dir, journals).
	if _, err := tb.RunScenario(workloadSeed); err != nil {
		t.Fatalf("epoch 1 wedged: %v", err)
	}
	// Kill the controller partway through epoch 2.
	ct.Arm(crashBudget)
	_, err = tb.RunScenario(workloadSeed)
	if !errors.Is(err, wan.ErrControllerHalted) {
		t.Fatalf("epoch 2 with crash budget %d: err = %v, want ErrControllerHalted", crashBudget, err)
	}
	run := crashRun{HaltAttempt: ct.Attempts(), Warm: stateDir != ""}
	// Restart: new process, same agents, same transport (re-armed to live).
	ct.Disarm()
	if err := tb.RestartController(ct); err != nil {
		t.Fatal(err)
	}
	if stateDir != "" {
		rec, err := tb.OpenState(stateDir)
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Warm {
			t.Fatalf("restart against journaled state recovered cold: %+v", rec)
		}
	}
	run.PlanAfterRestart = tb.Ctl.LastGoodRates() != nil
	// Epoch 3 runs to completion on the restarted controller.
	if _, err := tb.RunScenario(workloadSeed); err != nil {
		t.Fatalf("post-restart epoch wedged: %v", err)
	}
	run.Events = tb.Ctl.Log.Events()
	run.Faults = inj.History()
	for _, a := range tb.Agents {
		run.Rates = append(run.Rates, a.Rates())
	}
	return run
}

// TestCrashRestartDeterministicReplay: a controller crash-restart trace
// under drop x delay faults replays bit-identically from its seeds — the
// fault history, the event order (including the recovery events), the halt
// point, and the final installed plans.
func TestCrashRestartDeterministicReplay(t *testing.T) {
	spec := Spec{
		Seed: 4321, Drop: 0.10, DelayProb: 0.3,
		DelayMin: 200 * time.Microsecond, DelayMax: time.Millisecond,
	}
	budget := CrashPoint(4321, 0, 1, 4)
	a := runCrashRestartScenario(t, spec, 7, budget, t.TempDir())
	b := runCrashRestartScenario(t, spec, 7, budget, t.TempDir())
	if a.HaltAttempt != b.HaltAttempt {
		t.Errorf("halt attempt differs: %d vs %d", a.HaltAttempt, b.HaltAttempt)
	}
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Errorf("event order differs across identical crash traces:\n%v\n%v", a.Events, b.Events)
	}
	if !reflect.DeepEqual(a.Faults, b.Faults) {
		t.Errorf("fault histories differ:\n%v\n%v", a.Faults, b.Faults)
	}
	if !reflect.DeepEqual(a.Rates, b.Rates) {
		t.Errorf("final plans differ:\n%v\n%v", a.Rates, b.Rates)
	}
	// The trace must actually contain the crash and the warm recovery.
	wantEvents := map[string]bool{"recovery cold gen=1": false}
	halted, warm := false, false
	for _, e := range a.Events {
		if e == "recovery cold gen=1" {
			wantEvents[e] = true
		}
		if len(e) > 6 && e[len(e)-6:] == "halted" {
			halted = true
		}
		if len(e) > 13 && e[:13] == "recovery warm" {
			warm = true
		}
	}
	if !wantEvents["recovery cold gen=1"] || !halted || !warm {
		t.Errorf("trace missing cold open / halt / warm recovery events: %v", a.Events)
	}
}

// TestWarmRestartAvailabilityBeatsCold: on the same crash trace, a warm
// restart resumes with a known plan (last-good rates recovered from the
// journal and re-asserted fleet-wide) while a cold restart comes back
// empty-handed until it completes a full epoch.
func TestWarmRestartAvailabilityBeatsCold(t *testing.T) {
	spec := Spec{
		Seed: 4321, Drop: 0.10, DelayProb: 0.3,
		DelayMin: 200 * time.Microsecond, DelayMax: time.Millisecond,
	}
	budget := CrashPoint(4321, 0, 1, 4)
	warm := runCrashRestartScenario(t, spec, 7, budget, t.TempDir())
	cold := runCrashRestartScenario(t, spec, 7, budget, "")
	if !warm.PlanAfterRestart {
		t.Error("warm restart had no plan after recovery")
	}
	if cold.PlanAfterRestart {
		t.Error("cold restart claims a plan before running any epoch")
	}
	// Both eventually converge: no agent is left rate-less in either mode.
	for i, rates := range warm.Rates {
		if len(rates) == 0 {
			t.Errorf("warm: agent %d rate-less after recovery epoch", i)
		}
		if len(cold.Rates[i]) == 0 {
			t.Errorf("cold: agent %d rate-less after recovery epoch", i)
		}
	}
}
