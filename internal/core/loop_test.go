package core

import (
	"reflect"
	"testing"

	"prete/internal/routing"
	"prete/internal/te"
	"prete/internal/topology"
)

// b4Epoch is a B4 epoch at 30 Gbps per flow and a uniform 1e-3 p_i with the
// given signals.
func b4Epoch(t *testing.T, signals ...DegradationSignal) EpochInput {
	t.Helper()
	net, err := topology.ByName("B4")
	if err != nil {
		t.Fatal(err)
	}
	ts, err := routing.BuildTunnels(net, routing.Flows(net), 4)
	if err != nil {
		t.Fatal(err)
	}
	pi := make([]float64, len(net.Fibers))
	for i := range pi {
		pi[i] = 1e-3
	}
	demands := make(te.Demands, len(ts.Flows))
	for i := range demands {
		demands[i] = 30
	}
	return EpochInput{Net: net, Tunnels: ts, Demands: demands, Beta: 0.99, PI: pi, Signals: signals}
}

// TestPlanEpochSignalOrderDeterministic: the one-shot epoch plans its
// signals in ascending fiber order whatever order the caller lists them in,
// so signals on B4's fibers 0 and 1 give one tunnel set and one allocation
// either way round.
func TestPlanEpochSignalOrderDeterministic(t *testing.T) {
	p := New()
	p.ScenarioOpts.MaxScenarios = 150
	fwd, err := p.PlanEpoch(b4Epoch(t, DegradationSignal{Fiber: 0, PNN: 0.05}, DegradationSignal{Fiber: 1, PNN: 0.05}))
	if err != nil {
		t.Fatal(err)
	}
	rev, err := p.PlanEpoch(b4Epoch(t, DegradationSignal{Fiber: 1, PNN: 0.05}, DegradationSignal{Fiber: 0, PNN: 0.05}))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rev.Plan.Tunnels.NumTunnels(), fwd.Plan.Tunnels.NumTunnels(); got != want {
		t.Fatalf("reversed signals: %d tunnels, ascending order gave %d", got, want)
	}
	if !reflect.DeepEqual(rev.Plan.Tunnels.Tunnels, fwd.Plan.Tunnels.Tunnels) {
		t.Error("reversed signals: tunnel set differs")
	}
	if !reflect.DeepEqual(rev.Plan.Alloc, fwd.Plan.Alloc) {
		t.Error("reversed signals: allocation differs")
	}
}

// epoch runs one loop epoch stage by stage and returns what Retunnel
// reported with the plan.
func epoch(t *testing.T, l *Loop) (added, retired []routing.Tunnel, ep *EpochPlan) {
	t.Helper()
	added, retired, err := l.Retunnel()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Regenerate(); err != nil {
		t.Fatal(err)
	}
	if ep, err = l.Solve(); err != nil {
		t.Fatal(err)
	}
	return added, retired, ep
}

// TestLoopRestoresTunnelsWhenEpisodeEnds is §4.2's restore: a signal on
// fiber 3 establishes reactive tunnels; once it clears, the next epoch plans
// on exactly the base tunnel set and reports exactly the first epoch's
// reactive tunnels as retired.
func TestLoopRestoresTunnelsWhenEpisodeEnds(t *testing.T) {
	in := b4Epoch(t)
	p := New()
	p.ScenarioOpts.MaxScenarios = 150
	l := NewLoop(p, in)
	l.Signal(3, 0.6)
	first, retired, _ := epoch(t, l)
	if len(first) == 0 || len(retired) != 0 {
		t.Fatalf("first epoch added %d and retired %d tunnels, want some and none", len(first), len(retired))
	}
	l.Clear(3)
	added, retired, second := epoch(t, l)
	if !reflect.DeepEqual(second.Plan.Tunnels.Tunnels, in.Tunnels.Tunnels) {
		t.Errorf("after the episode: %d tunnels, want the base set's %d", second.Plan.Tunnels.NumTunnels(), in.Tunnels.NumTunnels())
	}
	if second.Update != nil || len(added) != 0 {
		t.Errorf("after the episode: update %+v, added %d tunnels", second.Update, len(added))
	}
	if !reflect.DeepEqual(retired, first) {
		t.Errorf("retired %d tunnels, want the first epoch's %d reactive tunnels", len(retired), len(first))
	}
}

// TestLoopRevertKeepsTunnelsToRetire: when the owner cannot program a
// change of episode, Revert plans that epoch on the base set and the next
// Retunnel reports the change again — the ended episode's tunnels still to
// retire (their removal may have failed), the new episode's still to add.
func TestLoopRevertKeepsTunnelsToRetire(t *testing.T) {
	in := b4Epoch(t)
	p := New()
	p.ScenarioOpts.MaxScenarios = 150
	l := NewLoop(p, in)
	l.Signal(3, 0.6)
	first, _, _ := epoch(t, l)
	l.Clear(3)
	if _, retired, err := l.Retunnel(); err != nil || !reflect.DeepEqual(retired, first) {
		t.Fatalf("ending the episode retired %d tunnels (err %v), want %d", len(retired), err, len(first))
	}
	l.Revert()
	added, retired, _ := epoch(t, l)
	if len(added) != 0 || !reflect.DeepEqual(retired, first) {
		t.Errorf("after a failed removal: added %d, retired %d tunnels, want 0 and %d", len(added), len(retired), len(first))
	}
	l.Signal(3, 0.6)
	if added, _, err := l.Retunnel(); err != nil || !reflect.DeepEqual(added, first) {
		t.Fatalf("re-signalling added %d tunnels (err %v), want %d", len(added), err, len(first))
	}
	l.Revert()
	if _, err := l.Regenerate(); err != nil {
		t.Fatal(err)
	}
	ep, err := l.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if ep.Update != nil || !reflect.DeepEqual(ep.Plan.Tunnels.Tunnels, in.Tunnels.Tunnels) {
		t.Errorf("a reverted epoch planned on %d tunnels, want the base set's %d", ep.Plan.Tunnels.NumTunnels(), in.Tunnels.NumTunnels())
	}
	if added, _, _ := epoch(t, l); !reflect.DeepEqual(added, first) {
		t.Errorf("after a failed install: added %d tunnels, want the episode's %d again", len(added), len(first))
	}
}

// TestLoopKeepsEpisodeOnUnchangedFibers: a new prediction for a fiber
// already signalled recalibrates Eqn. 1 but keeps the episode's tunnels, and
// Restore rebuilds the signals and scenario set from the calibrated vector
// an epoch journals, leaving the episode's tunnels to be reported again.
func TestLoopKeepsEpisodeOnUnchangedFibers(t *testing.T) {
	p := New()
	p.ScenarioOpts.MaxScenarios = 150
	l := NewLoop(p, b4Epoch(t))
	l.Signal(0, 0.3)
	l.Signal(1, 0.3)
	episode, _, first := epoch(t, l)
	l.Signal(0, 0.5)
	l.Signal(1, 0.5)
	added, retired, second := epoch(t, l)
	if len(added) != 0 || len(retired) != 0 || second.Update != first.Update {
		t.Errorf("a re-prediction re-derived the episode: added %d, retired %d", len(added), len(retired))
	}
	if second.Calibrated[0] != 0.5 || second.Calibrated[1] != 0.5 {
		t.Errorf("calibrated %v, want the new prediction on fibers 0 and 1", second.Calibrated[:2])
	}
	want := l.Signals()
	l.Reset()
	set, err := l.Restore(second.Calibrated)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Signals(); !reflect.DeepEqual(got, want) {
		t.Errorf("restored signals %+v, want %+v", got, want)
	}
	if set.Fingerprint() != second.Scenarios.Fingerprint() {
		t.Error("restored epoch enumerates a different scenario set")
	}
	if added, retired, _ := epoch(t, l); !reflect.DeepEqual(added, episode) || len(retired) != 0 {
		t.Errorf("after Restore: added %d, retired %d tunnels, want the episode's %d and none", len(added), len(retired), len(episode))
	}
}
