package fault

import (
	"reflect"
	"testing"
	"time"

	"prete/internal/obs"
	"prete/internal/optical"
	"prete/internal/wan"
)

// chaosRun is the full observable outcome of one testbed reaction round
// under injected faults: the installed TE plan on every agent, the ordered
// control-plane event log, and the injector's decision history. Wall-clock
// timings are excluded — they are the only run-to-run variation allowed.
type chaosRun struct {
	Rates          []map[string]float64
	Tunnels        []int
	Events         []string
	Faults         []string
	Degraded       bool
	SolveTruncated bool
	// The TE solves' deterministic cost, from the optimizer's own series:
	// work units spent and the units at which an incumbent first existed.
	SolveUnits, FirstIncumbentUnits int64
}

func runChaosScenario(t *testing.T, spec Spec, workloadSeed uint64) chaosRun {
	return runChaosScenarioBudget(t, spec, workloadSeed, 0)
}

// runChaosScenarioBudget is runChaosScenario with a deterministic work-unit
// cap on the round's TE solve (0 = unlimited).
func runChaosScenarioBudget(t *testing.T, spec Spec, workloadSeed uint64, solveUnits int64) chaosRun {
	t.Helper()
	reg := obs.NewRegistry()
	inj, err := NewInjector(spec, reg)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := wan.NewTestbedTransport(fastSwitch(), func(f optical.Features) float64 { return 0.8 },
		NewTransport(wan.TCPTransport{}, inj))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	tb.SolveUnits = solveUnits
	tb.Ctl.Metrics = reg
	tb.Ctl.Log = new(wan.EventLog)
	tb.Ctl.Retry = wan.RetryPolicy{MaxAttempts: 6, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond, Jitter: 0.5}
	timing, err := tb.RunScenario(workloadSeed)
	if err != nil {
		t.Fatalf("chaos scenario wedged: %v", err)
	}
	run := chaosRun{
		Events: tb.Ctl.Log.Events(), Faults: inj.History(),
		Degraded: timing.Degraded, SolveTruncated: timing.SolveTruncated,
		SolveUnits:          reg.Counter("core.budget.spent").Value(),
		FirstIncumbentUnits: int64(reg.Histogram("core.anytime.first_incumbent_units", obs.CountBuckets()).Sum()),
	}
	for _, a := range tb.Agents {
		run.Rates = append(run.Rates, a.Rates())
		run.Tunnels = append(run.Tunnels, a.NumTunnels())
	}
	return run
}

// TestChaosDeterministicReplay is the acceptance check: identical fault
// seed + workload seed must produce a bit-identical sequence of installed
// TE plans and an identical control-plane event order across two runs.
func TestChaosDeterministicReplay(t *testing.T) {
	spec := Spec{
		Seed: 1234, Drop: 0.15, DelayProb: 0.3,
		DelayMin: 500 * time.Microsecond, DelayMax: 2 * time.Millisecond,
		Duplicate: 0.05, Corrupt: 0.05,
	}
	a := runChaosScenario(t, spec, 7)
	b := runChaosScenario(t, spec, 7)
	if !reflect.DeepEqual(a.Rates, b.Rates) {
		t.Errorf("installed rate plans differ across identical runs:\n%v\n%v", a.Rates, b.Rates)
	}
	if !reflect.DeepEqual(a.Tunnels, b.Tunnels) {
		t.Errorf("installed tunnel tables differ: %v vs %v", a.Tunnels, b.Tunnels)
	}
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Errorf("control-plane event order differs:\n%v\n%v", a.Events, b.Events)
	}
	if !reflect.DeepEqual(a.Faults, b.Faults) {
		t.Errorf("fault decision histories differ:\n%v\n%v", a.Faults, b.Faults)
	}
	if a.Degraded != b.Degraded {
		t.Errorf("degraded flag differs: %v vs %v", a.Degraded, b.Degraded)
	}
	// Sanity: the spec actually perturbed the run.
	injected := 0
	for _, f := range a.Faults {
		if f != "s1:none" && f != "s2:none" && f != "s3:none" {
			injected++
		}
	}
	if injected == 0 {
		t.Error("chaos run injected no faults; determinism check is vacuous")
	}
}

// TestChaosConvergesUnderDropAndDelay is the second acceptance check: with
// 10% RPC drop and a 50ms delay on every RPC, the testbed still converges
// to a valid plan, and the fallback ladder never leaves agents rate-less.
func TestChaosConvergesUnderDropAndDelay(t *testing.T) {
	if testing.Short() {
		t.Skip("50ms-per-RPC chaos run; skipped in -short mode")
	}
	spec := Spec{
		Seed: 99, Drop: 0.10,
		DelayProb: 1, DelayMin: 50 * time.Millisecond, DelayMax: 50 * time.Millisecond,
	}
	run := runChaosScenario(t, spec, 7)
	rated := 0
	for i, rates := range run.Rates {
		if len(rates) > 0 {
			rated++
			for k, v := range rates {
				if v < 0 {
					t.Errorf("agent %d has negative rate %s=%v", i, k, v)
				}
			}
		}
	}
	if rated == 0 {
		t.Fatal("no agent holds any rates: the fleet was left rate-less")
	}
	installed := 0
	for _, n := range run.Tunnels {
		installed += n
	}
	if installed == 0 {
		t.Fatal("no tunnels installed anywhere despite retries")
	}
}

// TestChaosTightSolveBudget combines control-plane faults with a starved TE
// solve budget: even when RPCs drop AND the optimizer cannot finish (or even
// find an incumbent), the round must converge to a valid installed plan —
// truncated incumbent or heuristic fallback, never rate-less agents — and
// equal (fault seed, workload seed, budget) triples must replay
// bit-identically.
func TestChaosTightSolveBudget(t *testing.T) {
	spec := Spec{
		Seed: 1234, Drop: 0.15, DelayProb: 0.3,
		DelayMin: 500 * time.Microsecond, DelayMax: 2 * time.Millisecond,
	}
	// Budgets come from the unbudgeted solve of the same workload rather
	// than from a pivot count that changes with the LP core: one unit short
	// of its first incumbent forces the heuristic rung, one unit short of
	// its total a truncated incumbent.
	ref := runChaosScenarioBudget(t, Spec{Seed: spec.Seed}, 7, 0)
	if ref.SolveTruncated || ref.FirstIncumbentUnits < 2 || ref.FirstIncumbentUnits >= ref.SolveUnits {
		t.Fatalf("reference solve: truncated=%v, first incumbent at %d of %d units", ref.SolveTruncated, ref.FirstIncumbentUnits, ref.SolveUnits)
	}
	for _, units := range []int64{ref.FirstIncumbentUnits - 1, ref.SolveUnits - 1} {
		a := runChaosScenarioBudget(t, spec, 7, units)
		if !a.SolveTruncated {
			t.Fatalf("units=%d: solve was not truncated; budget too generous for the test", units)
		}
		rated := 0
		for i, rates := range a.Rates {
			for k, v := range rates {
				if v < 0 {
					t.Errorf("units=%d: agent %d has negative rate %s=%v", units, i, k, v)
				}
			}
			if len(rates) > 0 {
				rated++
			}
		}
		if rated == 0 {
			t.Fatalf("units=%d: no agent holds any rates: the fleet was left rate-less", units)
		}
		found := false
		for _, e := range a.Events {
			if e == "te-solve truncated" || e == "te-solve fallback" {
				found = true
			}
		}
		if !found {
			t.Errorf("units=%d: no te-solve truncation/fallback event logged: %v", units, a.Events)
		}
		b := runChaosScenarioBudget(t, spec, 7, units)
		if !reflect.DeepEqual(a.Rates, b.Rates) {
			t.Errorf("units=%d: installed plans differ across identical budgeted runs:\n%v\n%v", units, a.Rates, b.Rates)
		}
		if !reflect.DeepEqual(a.Events, b.Events) {
			t.Errorf("units=%d: event order differs across identical budgeted runs:\n%v\n%v", units, a.Events, b.Events)
		}
	}
}

// TestFallbackKeepsLastGoodPlan drives the ladder directly: a successful
// round installs a table, then a fully partitioned round must fall back
// without wiping it.
func TestFallbackKeepsLastGoodPlan(t *testing.T) {
	a := newAgent(t, "s1")
	reg := obs.NewRegistry()
	// Partition starts only after the first good round: 0 probability
	// stream wrapped by a manually started outage below.
	inj, err := NewInjector(Spec{Partition: 0}, reg)
	if err != nil {
		t.Fatal(err)
	}
	ctl := newController(t, inj, map[string]string{"s1": a.Addr()})
	ctl.Metrics = reg
	ctl.Retry = wan.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond}
	good := map[string]float64{"t0": 10, "t1": 5}
	if _, fellBack, err := ctl.UpdateRatesWithFallback(good); err != nil || fellBack {
		t.Fatalf("healthy round: fellBack=%v err=%v", fellBack, err)
	}
	// Now partition the peer for every remaining RPC.
	inj.mu.Lock()
	inj.peers["s1"].down = 1 << 30
	inj.peers["s1"].downKind = Partition
	inj.mu.Unlock()
	_, fellBack, err := ctl.UpdateRatesWithFallback(map[string]float64{"t0": 99})
	if !fellBack {
		t.Fatalf("partitioned round did not fall back (err=%v)", err)
	}
	if reg.Counter("wan.fallback.rounds").Value() != 1 {
		t.Errorf("wan.fallback.rounds = %d, want 1", reg.Counter("wan.fallback.rounds").Value())
	}
	if got := a.Rates(); got["t0"] != 10 || got["t1"] != 5 {
		t.Errorf("agent lost its last good plan: %v", got)
	}
	if lg := ctl.LastGoodRates(); lg["t0"] != 10 {
		t.Errorf("controller forgot the last good plan: %v", lg)
	}
}
