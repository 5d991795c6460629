package prete

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"prete/internal/optical"
	"prete/internal/stats"
)

func b4System(t *testing.T) *System {
	t.Helper()
	net, err := LoadTopology("B4")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Scenario.MaxScenarios = 150
	sys, err := NewSystem(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(nil, DefaultConfig()); err == nil {
		t.Error("nil network accepted")
	}
	net, _ := LoadTopology("B4")
	bad := DefaultConfig()
	bad.StaticPI = []float64{0.1}
	if _, err := NewSystem(net, bad); err == nil {
		t.Error("mismatched StaticPI accepted")
	}
}

func TestSystemTopologyAndTunnels(t *testing.T) {
	sys := b4System(t)
	if got := len(sys.Flows()); got != 52 {
		t.Fatalf("flows = %d, want 52", got)
	}
	quiet, err := sys.PlanEpoch(make(Demands, len(sys.Flows())))
	if err != nil {
		t.Fatal(err)
	}
	if got := quiet.Plan.Tunnels.NumTunnels(); got != 208 {
		t.Fatalf("tunnels = %d, want 208 (Table 3)", got)
	}
}

// degradedSample fabricates a telemetry sample with the given excess loss.
func degradedSample(at int64, excess float64) Sample {
	return Sample{
		UnixS: at, TxDBm: optical.TxPowerDBm,
		RxDBm:  optical.TxPowerDBm - 22 - excess,
		LossDB: 22 + excess, ExcessDB: excess,
		State: optical.Classify(excess),
	}
}

func TestObserveLifecycle(t *testing.T) {
	sys := b4System(t)
	// Fiber 2 shares no conduit on B4, so exactly one signal results from
	// two confirmed degraded samples.
	if _, err := sys.Observe(2, degradedSample(1, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Observe(2, degradedSample(2, 5)); err != nil {
		t.Fatal(err)
	}
	sigs := sys.ActiveSignals()
	if len(sigs) != 1 || sigs[0].Fiber != 2 {
		t.Fatalf("signals = %+v", sigs)
	}
	// default predictor fallback is the measured 0.40
	if sigs[0].PNN != 0.40 {
		t.Fatalf("fallback PNN = %v, want 0.40", sigs[0].PNN)
	}
	// recovery clears it
	sys.Observe(2, degradedSample(3, 0))
	sys.Observe(2, degradedSample(4, 0))
	if got := sys.ActiveSignals(); len(got) != 0 {
		t.Fatalf("signals after recovery = %+v", got)
	}
	if _, err := sys.Observe(99, degradedSample(1, 0)); err == nil {
		t.Fatal("out-of-range fiber accepted")
	}
}

func TestObserveConduitPropagation(t *testing.T) {
	// B4's builder pairs fibers 0 and 1 into one conduit (§3.1: fibers in
	// one conduit are a single degradation entity).
	sys := b4System(t)
	sys.Observe(0, degradedSample(1, 5))
	sys.Observe(0, degradedSample(2, 5))
	sigs := sys.ActiveSignals()
	if len(sigs) != 2 {
		t.Fatalf("conduit-mates should both be signaled, got %+v", sigs)
	}
	// recovery clears the whole group
	sys.Observe(0, degradedSample(3, 0))
	sys.Observe(0, degradedSample(4, 0))
	if got := sys.ActiveSignals(); len(got) != 0 {
		t.Fatalf("signals after recovery = %+v", got)
	}
}

type constPredictor float64

func (c constPredictor) PredictProb(Features) float64 { return float64(c) }
func (c constPredictor) Name() string                 { return "const" }

func TestObserveUsesPredictor(t *testing.T) {
	sys := b4System(t)
	sys.SetPredictor(constPredictor(0.77))
	sys.Observe(2, degradedSample(1, 6))
	sys.Observe(2, degradedSample(2, 6))
	sigs := sys.ActiveSignals()
	if len(sigs) != 1 || sigs[0].PNN != 0.77 {
		t.Fatalf("signals = %+v", sigs)
	}
}

func TestPlanEpochQuietAndDegraded(t *testing.T) {
	sys := b4System(t)
	demands := make(Demands, len(sys.Flows()))
	for i := range demands {
		demands[i] = 30
	}
	quiet, err := sys.PlanEpoch(demands)
	if err != nil {
		t.Fatal(err)
	}
	if quiet.Update != nil {
		t.Fatal("quiet epoch established tunnels")
	}
	if quiet.Plan.MaxLoss > 1e-6 {
		t.Fatalf("quiet-epoch loss = %v at light load", quiet.Plan.MaxLoss)
	}
	for f := range demands {
		if got := Delivered(quiet.Plan, FlowID(f), demands[f], nil); got < demands[f]-1e-6 {
			t.Fatalf("quiet epoch delivers %v of flow %d's %v", got, f, demands[f])
		}
	}
	// now with an active degradation
	sys.SetPredictor(constPredictor(0.9))
	sys.Observe(2, degradedSample(1, 6))
	sys.Observe(2, degradedSample(2, 6))
	deg, err := sys.PlanEpoch(demands)
	if err != nil {
		t.Fatal(err)
	}
	if deg.Update == nil || deg.Update.NewTunnels == 0 {
		t.Fatal("degraded epoch did not establish tunnels")
	}
	if deg.Calibrated[2] != 0.9 {
		t.Fatalf("calibrated p = %v, want the predictor output", deg.Calibrated[2])
	}
}

// TestPlanEpochSignalOrderDeterministic: one confirmed degradation on B4's
// fiber 0 signals its conduit-mate fiber 1 too, and Algorithm 1 then runs
// once per signal. The reactive tunnels' IDs, and with them the LP's column
// order and the vertex it returns, depend on that order, so every fresh
// System must plan the two signals in the same order: one tunnel set and one
// allocation, bit for bit, across 50 runs.
func TestPlanEpochSignalOrderDeterministic(t *testing.T) {
	var first *EpochPlan
	for run := 0; run < 50; run++ {
		sys := b4System(t)
		sys.SetPredictor(constPredictor(0.05))
		sys.Observe(0, degradedSample(1, 6))
		sys.Observe(0, degradedSample(2, 6))
		if sigs := sys.ActiveSignals(); len(sigs) != 2 {
			t.Fatalf("signals = %+v, want fiber 0 and its conduit-mate", sigs)
		}
		demands := make(Demands, len(sys.Flows()))
		for i := range demands {
			demands[i] = 30
		}
		ep, err := sys.PlanEpoch(demands)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = ep
			continue
		}
		if got, want := ep.Plan.Tunnels.NumTunnels(), first.Plan.Tunnels.NumTunnels(); got != want {
			t.Fatalf("run %d: %d tunnels, run 0 had %d", run, got, want)
		}
		if !reflect.DeepEqual(ep.Plan.Tunnels.Tunnels, first.Plan.Tunnels.Tunnels) {
			t.Fatalf("run %d: tunnel set differs from run 0", run)
		}
		if !reflect.DeepEqual(ep.Plan.Alloc, first.Plan.Alloc) {
			t.Fatalf("run %d: allocation differs from run 0", run)
		}
	}
}

func TestConcurrentObserve(t *testing.T) {
	sys := b4System(t)
	var wg sync.WaitGroup
	for f := 0; f < 8; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			local := stats.SubRNG(1, uint64(f))
			for i := 0; i < 200; i++ {
				excess := 0.0
				if local.Bernoulli(0.1) {
					excess = 6
				}
				if _, err := sys.Observe(FiberID(f), degradedSample(int64(i), excess)); err != nil {
					t.Error(err)
					return
				}
			}
		}(f)
	}
	// Epochs run beside the collectors: Observe is serialized with the
	// stages that read the signals, not with the solve.
	wg.Add(1)
	go func() {
		defer wg.Done()
		demands := make(Demands, len(sys.Flows()))
		for i := 0; i < 2; i++ {
			if _, err := sys.PlanEpoch(demands); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestObserveDoesNotWaitForEpoch: while an epoch holds the epoch lock (as
// it does for its whole solve), Observe still signals and ActiveSignals
// still reads.
func TestObserveDoesNotWaitForEpoch(t *testing.T) {
	sys := b4System(t)
	sys.epoch.Lock()
	defer sys.epoch.Unlock()
	done := make(chan []DegradationSignal, 1)
	go func() {
		sys.Observe(2, degradedSample(1, 5))
		sys.Observe(2, degradedSample(2, 5))
		done <- sys.ActiveSignals()
	}()
	select {
	case sigs := <-done:
		if len(sigs) != 1 || sigs[0].Fiber != 2 {
			t.Fatalf("signals = %+v, want fiber 2's", sigs)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Observe blocked behind a running epoch")
	}
}

// TestObserveInterpolatesLostSamples pins §3.1's interpolation rule on the
// facade: lost samples inside a degradation are filled from their degraded
// neighbours, not classified by their raw (healthy-looking) values, so the
// signal survives the gap.
func TestObserveInterpolatesLostSamples(t *testing.T) {
	sys := b4System(t)
	lost := func(at int64) Sample {
		s := degradedSample(at, 0)
		s.Missing = true
		return s
	}
	for _, s := range []Sample{degradedSample(1, 5), degradedSample(2, 5), lost(3), lost(4), degradedSample(5, 5)} {
		evs, err := sys.Observe(2, s)
		if err != nil {
			t.Fatal(err)
		}
		if s.UnixS > 2 && len(evs) != 0 {
			t.Fatalf("t=%d: events %+v inside a standing degradation", s.UnixS, evs)
		}
	}
	if sigs := sys.ActiveSignals(); len(sigs) != 1 || sigs[0].Fiber != 2 {
		t.Fatalf("signals after the gap = %+v, want fiber 2's degradation", sigs)
	}
}

func TestPublicHelpers(t *testing.T) {
	net, err := LoadTopology("IBM")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := GenerateTrace(net, 7, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Episodes) == 0 {
		t.Fatal("empty trace")
	}
	// A constant 0.77 labels every example failed.
	precision, recall, _, accuracy := EvaluatePredictor(constPredictor(0.77), []LabeledExample{{Failed: true}, {Failed: false}})
	if precision != 0.5 || recall != 1 || accuracy != 0.5 {
		t.Fatalf("precision, recall, accuracy = %v, %v, %v; want 0.5, 1, 0.5", precision, recall, accuracy)
	}
	// NewNetwork is the custom-topology entry: it must validate references.
	if _, err := NewNetwork("x", []Node{{ID: 0, Name: "a"}}, []Fiber{{ID: 0, A: 0, B: 9}}, nil); err == nil {
		t.Fatal("dangling fiber endpoint accepted")
	}
}
