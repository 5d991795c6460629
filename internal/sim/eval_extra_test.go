package sim

import (
	"reflect"
	"testing"

	"prete/internal/stats"
	"prete/internal/te"
	"prete/internal/topology"
)

// TestDemandUncertaintyHurts verifies the Fig 17 mechanism: planning on
// stale (jittered) demand can only lower availability relative to planning
// on the true demand.
func TestDemandUncertaintyHurts(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation in -short mode")
	}
	cfg := fastConfig()
	env := b4Env(t, cfg)
	ev := NewEvaluator(env, cfg)
	truth := env.BaseDemands.Scale(3)
	rng := stats.NewRNG(99)
	stale := make(te.Demands, len(truth))
	for i, d := range truth {
		stale[i] = d * (1 + 0.15*rng.NormFloat64())
		if stale[i] < 0 {
			stale[i] = 0
		}
	}
	exact, err := ev.EvaluateDemands("TeaVar", truth, truth)
	if err != nil {
		t.Fatal(err)
	}
	jittered, err := ev.EvaluateDemands("TeaVar", stale, truth)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("TeaVar exact %.6f vs stale-planned %.6f", exact.Mean, jittered.Mean)
	if jittered.Mean > exact.Mean+1e-9 {
		t.Fatalf("stale planning beat exact planning: %v > %v", jittered.Mean, exact.Mean)
	}
}

// TestPreTERatioZeroMatchesNaive checks the ratio knob is wired through.
func TestPreTERatioZeroMatchesNaive(t *testing.T) {
	if testing.Short() {
		t.Skip("minutes-long evaluation suite; skipped in -short mode")
	}
	if testing.Short() {
		t.Skip("full evaluation in -short mode")
	}
	cfg := fastConfig()
	env := b4Env(t, cfg)
	ev := NewEvaluator(env, cfg)
	viaRatio, err := ev.EvaluatePreTERatio(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	viaName, err := ev.Evaluate("PreTE-naive", 2)
	if err != nil {
		t.Fatal(err)
	}
	if viaRatio.Mean != viaName.Mean {
		t.Fatalf("ratio-0 (%v) != PreTE-naive (%v)", viaRatio.Mean, viaName.Mean)
	}
}

// TestOracleDominatesEverything: with perfect future knowledge and reactive
// tunnels, the oracle upper-bounds every other scheme at every scale tested.
func TestOracleDominatesEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("minutes-long evaluation suite; skipped in -short mode")
	}
	if testing.Short() {
		t.Skip("full evaluation in -short mode")
	}
	cfg := fastConfig()
	env := b4Env(t, cfg)
	ev := NewEvaluator(env, cfg)
	oracle, err := ev.Evaluate("Oracle", 2)
	if err != nil {
		t.Fatal(err)
	}
	// ARROW is excluded: it physically restores cut capacity, so it can
	// legitimately exceed a routing-only oracle in scenarios where no
	// reroute can carry the demand.
	for _, s := range []string{"ECMP", "TeaVar", "Flexile", "PreTE"} {
		a, err := ev.Evaluate(s, 2)
		if err != nil {
			t.Fatal(err)
		}
		if a.Mean > oracle.Mean+1e-9 {
			t.Errorf("%s (%v) beat the oracle (%v)", s, a.Mean, oracle.Mean)
		}
	}
}

// TestBetterPredictionNeverHurts: PreTE with oracle-grade prediction must
// be at least as available as with TeaVar-grade (non-)prediction.
func TestBetterPredictionNeverHurts(t *testing.T) {
	if testing.Short() {
		t.Skip("minutes-long evaluation suite; skipped in -short mode")
	}
	if testing.Short() {
		t.Skip("full evaluation in -short mode")
	}
	cfg := fastConfig()
	env := b4Env(t, cfg)
	evGood := NewEvaluator(env, cfg)
	evGood.Quality = OracleQuality()
	evBad := NewEvaluator(env, cfg)
	evBad.Quality = PredictorQuality{Name: "none", PHatFail: 0.003, PHatOK: 0.003}
	good, err := evGood.Evaluate("PreTE", 3)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := evBad.Evaluate("PreTE", 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("oracle-quality %.6f vs none-quality %.6f", good.Mean, bad.Mean)
	if good.Mean < bad.Mean-5e-3 {
		t.Fatalf("better prediction hurt availability: %v < %v", good.Mean, bad.Mean)
	}
}

func TestCutKeyCanonical(t *testing.T) {
	if cutKey([]topology.FiberID{1, 5}) == cutKey([]topology.FiberID{1, 6}) {
		t.Fatal("cuts {1, 5} and {1, 6} share a key")
	}
	if cutKey(nil) != "" {
		t.Fatal("empty cut should yield empty key")
	}
	// Past 64 fibers (TWAN has ~52, a larger WAN more) every fiber must
	// still reach the key: two cuts differing only there are two plans.
	lo := cutKey([]topology.FiberID{3})
	hi := cutKey([]topology.FiberID{3, 69})
	if lo == hi {
		t.Fatal("cutKey drops fibers >= 64: cuts {3} and {3, 69} share a key")
	}
	if cutKey([]topology.FiberID{64}) == cutKey([]topology.FiberID{69}) {
		t.Fatal("cutKey maps fibers 64 and 69 to one key")
	}
}

// TestPlanCacheKeysWholeDemandVector: the per-cut plans of Flexile's
// recompute, ARROW's restoration and the oracle are cached per demand
// matrix. Two matrices that agree on flow 0 but differ elsewhere must not
// share plans: evaluating one and then the other on a single Evaluator has
// to match the second on a fresh Evaluator.
func TestPlanCacheKeysWholeDemandVector(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ScenarioOpts.MaxScenarios = 60
	cfg.MaxDegScenarios = 2
	env, err := BuildEnv("B4", 2025, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d1 := env.BaseDemands.Scale(2)
	d2 := env.BaseDemands.Scale(4)
	d2[0] = d1[0]
	for _, s := range []string{"Oracle", "Flexile", "ARROW"} {
		shared := NewEvaluator(env, cfg)
		if _, err := shared.EvaluateDemands(s, d1, d1); err != nil {
			t.Fatal(err)
		}
		got, err := shared.EvaluateDemands(s, d2, d2)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewEvaluator(env, cfg).EvaluateDemands(s, d2, d2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: mean %.6f after another matrix with the same flow 0, %.6f fresh", s, got.Mean, want.Mean)
		}
	}
}
