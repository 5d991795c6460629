package sim

import (
	"reflect"
	"testing"

	"prete/internal/obs"
)

// TestEvaluateDeterministicAcrossParallelism pins the evaluator's
// guarantee: per-flow availability is bit-identical at every Parallelism
// setting, for every scheme, on both evaluation topologies. Configs are
// trimmed (fewer scenarios) so the table stays fast; determinism does not
// depend on scale.
func TestEvaluateDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("minutes-long evaluation suite; skipped in -short mode")
	}
	schemes := []string{"TeaVar", "ARROW", "Flexile", "PreTE", "Oracle"}
	for _, topo := range []string{"B4", "IBM"} {
		cfg := DefaultConfig()
		cfg.ScenarioOpts.MaxScenarios = 60
		cfg.MaxDegScenarios = 3
		cfg.Parallelism = 1
		env, err := BuildEnv(topo, 2025, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[string]Availability)
		ev := NewEvaluator(env, cfg)
		for _, s := range schemes {
			a, err := ev.Evaluate(s, 1.5)
			if err != nil {
				t.Fatalf("%s/%s serial: %v", topo, s, err)
			}
			want[s] = a
		}
		for _, p := range []int{2, 8} {
			pcfg := cfg
			pcfg.Parallelism = p
			pev := NewEvaluator(env, pcfg)
			for _, s := range schemes {
				got, err := pev.Evaluate(s, 1.5)
				if err != nil {
					t.Fatalf("%s/%s parallelism %d: %v", topo, s, p, err)
				}
				if !reflect.DeepEqual(got.PerFlow, want[s].PerFlow) {
					t.Errorf("%s/%s parallelism %d: per-flow availability diverges from serial", topo, s, p)
				}
				if got.Min != want[s].Min || got.Mean != want[s].Mean {
					t.Errorf("%s/%s parallelism %d: min/mean = %v/%v, want %v/%v",
						topo, s, p, got.Min, got.Mean, want[s].Min, want[s].Mean)
				}
			}
		}
	}
}

// TestPlanCacheBuildsEachKeyOnce pins the per-cut plan cache and the
// enumeration memo under concurrency: at parallelism 8, workers that miss
// one key wait for a single build, so each cache's miss count equals the
// number of keys it holds, and equals the serial run's, and the
// availability is the serial run's bit for bit.
func TestPlanCacheBuildsEachKeyOnce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ScenarioOpts.MaxScenarios = 30
	cfg.MaxDegScenarios = 8
	env, err := BuildEnv("B4", 2025, cfg)
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		avail             Availability
		plans, planMisses int64
		enums, enumMisses int64
	}
	evaluate := func(scheme string, parallelism int) run {
		t.Helper()
		c := cfg
		c.Parallelism = parallelism
		c.Metrics = obs.NewRegistry()
		ev := NewEvaluator(env, c)
		a, err := ev.Evaluate(scheme, 1.0)
		if err != nil {
			t.Fatalf("%s at parallelism %d: %v", scheme, parallelism, err)
		}
		counters := c.Metrics.Snapshot().Counters
		return run{a, int64(len(ev.plans)), counters["sim.plan_cache.misses"],
			int64(len(ev.enumCache)), counters["sim.enum_cache.misses"]}
	}
	for _, scheme := range []string{"Flexile", "Oracle"} {
		serial, par := evaluate(scheme, 1), evaluate(scheme, 8)
		if par.plans == 0 {
			t.Fatalf("%s: no per-cut plan was cached", scheme)
		}
		for _, r := range []struct {
			name string
			run  run
		}{{"serial", serial}, {"parallelism 8", par}} {
			if r.run.planMisses != r.run.plans || r.run.enumMisses != r.run.enums {
				t.Errorf("%s %s: %d plan misses for %d plans, %d enumeration misses for %d sets",
					scheme, r.name, r.run.planMisses, r.run.plans, r.run.enumMisses, r.run.enums)
			}
		}
		if par.planMisses != serial.planMisses {
			t.Errorf("%s: %d plan misses at parallelism 8, %d serial", scheme, par.planMisses, serial.planMisses)
		}
		if !reflect.DeepEqual(par.avail, serial.avail) {
			t.Errorf("%s: availability at parallelism 8 differs from the serial run's", scheme)
		}
	}
}
