package sim

import (
	"reflect"
	"testing"

	"prete/internal/te"
)

func TestStormFibers(t *testing.T) {
	cfg := fastConfig()
	env := b4Env(t, cfg)
	storm := env.StormFibers(3)
	if len(storm) != 3 {
		t.Fatalf("got %d storm fibers, want 3", len(storm))
	}
	// The selection is the top-3 by degradation probability: every
	// non-selected fiber's PD is <= every selected fiber's PD.
	selected := make(map[int]bool, len(storm))
	minPD := 1.0
	for _, f := range storm {
		selected[f] = true
		if env.PD[f] < minPD {
			minPD = env.PD[f]
		}
	}
	for i, p := range env.PD {
		if !selected[i] && p > minPD {
			t.Errorf("fiber %d (PD %v) outranks a selected storm fiber (min PD %v)", i, p, minPD)
		}
	}
	// Deterministic and clamped.
	if !reflect.DeepEqual(storm, env.StormFibers(3)) {
		t.Error("StormFibers is not deterministic")
	}
	if got := env.StormFibers(len(env.PD) + 10); len(got) != len(env.PD) {
		t.Errorf("over-asking returned %d fibers, want %d", len(got), len(env.PD))
	}
}

func TestEvaluateStormUniformQuiet(t *testing.T) {
	cfg := fastConfig()
	env := b4Env(t, cfg)
	ev := NewEvaluator(env, cfg)
	// A quiet "storm" at moderate scale: availability should be high.
	a, err := ev.EvaluateStormUniform("PreTE", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Mean < 0.99 || a.Mean > 1 {
		t.Errorf("quiet-epoch mean availability %v outside [0.99, 1]", a.Mean)
	}
	if _, err := ev.EvaluateStormUniform("ECMP", 1, nil); err == nil {
		t.Error("want error for a non-storm scheme")
	}
}

// stormConfig widens scenario enumeration: a storm calibrates several
// fibers to high failure probability at once, so covering beta mass per
// flow needs triple-failure scenarios, not just the default doubles.
func stormConfig() Config {
	cfg := fastConfig()
	cfg.ScenarioOpts.MaxFailures = 3
	// Half the fast cap keeps the per-tier Benders solves quick; with
	// triples enumerated the top-60 scenarios still cover ~0.998 mass,
	// comfortably above Beta.
	cfg.ScenarioOpts.MaxScenarios = 60
	return cfg
}

func TestEvaluateStormClassedShape(t *testing.T) {
	cfg := stormConfig()
	env := b4Env(t, cfg)
	ev := NewEvaluator(env, cfg)
	spec := te.DefaultClassSpec()
	storm := env.StormFibers(2)
	ca, ep, err := ev.EvaluateStormClassed(2, storm, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(ca.Tiers) != 3 || len(ca.PerTier) != 3 {
		t.Fatalf("per-tier shape: %+v", ca)
	}
	for k, name := range ca.Tiers {
		if name != spec.Tiers[k].Name {
			t.Errorf("tier %d named %q, want %q", k, name, spec.Tiers[k].Name)
		}
		if a := ca.PerTier[k]; a.Mean < 0 || a.Mean > 1 || a.Min < 0 || a.Min > a.Mean+1e-12 {
			t.Errorf("tier %s availability out of range: %+v", name, a)
		}
	}
	if ep == nil || len(ep.Classed.Tiers) != 3 || ep.Update == nil {
		t.Fatalf("epoch plan incomplete: %+v", ep)
	}
	// The protected tier's availability dominates the shed tier's: strict
	// priority cannot make the top tier worse than the bottom one.
	if lc, bulk := ca.PerTier[0].Mean, ca.PerTier[2].Mean; lc < bulk-1e-9 {
		t.Errorf("protected tier (%v) below shed tier (%v)", lc, bulk)
	}
}

func TestStormClassedDeterministicAcrossParallelism(t *testing.T) {
	cfg := stormConfig()
	env := b4Env(t, cfg)
	spec := te.DefaultClassSpec()
	storm := env.StormFibers(2)
	run := func(parallelism int) (ClassedAvailability, Availability) {
		c := cfg
		c.Parallelism = parallelism
		ev := NewEvaluator(env, c)
		ca, _, err := ev.EvaluateStormClassed(2, storm, spec)
		if err != nil {
			t.Fatal(err)
		}
		ua, err := ev.EvaluateStormUniform("PreTE", 2, storm)
		if err != nil {
			t.Fatal(err)
		}
		return ca, ua
	}
	ca1, ua1 := run(1)
	ca4, ua4 := run(4)
	if !reflect.DeepEqual(ca1, ca4) {
		t.Errorf("classed storm evaluation differs across parallelism:\n p1 %+v\n p4 %+v", ca1, ca4)
	}
	if !reflect.DeepEqual(ua1, ua4) {
		t.Errorf("uniform storm evaluation differs across parallelism:\n p1 %+v\n p4 %+v", ua1, ua4)
	}
}
