package sim

import (
	"reflect"
	"testing"

	"prete/internal/obs"
)

// shardTestEnv builds a small B4 environment shared by the
// enumeration-memo tests.
func shardTestEnv(t *testing.T) (*Env, Config) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.ScenarioOpts.MaxScenarios = 60
	cfg.MaxDegScenarios = 3
	cfg.Parallelism = 1
	env, err := BuildEnv("B4", 2025, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return env, cfg
}

// TestEnumerationMemo pins the bugfix: repeated evaluations against the
// same environment must enumerate each distinct probability vector once,
// serving every later request from the fingerprint memo — without
// perturbing results.
func TestEnumerationMemo(t *testing.T) {
	env, cfg := shardTestEnv(t)
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	ev := NewEvaluator(env, cfg)

	first, err := ev.Evaluate("TeaVar", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	afterFirst := reg.Snapshot().Counters
	misses := afterFirst["sim.enum_cache.misses"]
	if misses == 0 {
		t.Fatal("first evaluation recorded no enumeration misses")
	}

	// A second sweep over the same env re-uses every enumeration: the miss
	// counter must not move, only hits.
	second, err := ev.Evaluate("TeaVar", 1.0)
	if err != nil {
		t.Fatal(err)
	}
	after := reg.Snapshot().Counters
	if after["sim.enum_cache.misses"] != misses {
		t.Fatalf("second evaluation re-enumerated: misses %d -> %d",
			misses, after["sim.enum_cache.misses"])
	}
	if after["sim.enum_cache.hits"] <= afterFirst["sim.enum_cache.hits"] {
		t.Fatal("second evaluation recorded no enumeration hits")
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("memoized evaluation diverges from the first")
	}

	// Different demand scales share the truth-probability enumerations too
	// (the Fig 13 grid case): still no new misses.
	if _, err := ev.Evaluate("TeaVar", 2.0); err != nil {
		t.Fatal(err)
	}
	final := reg.Snapshot().Counters
	if final["sim.enum_cache.misses"] != misses {
		t.Fatalf("demand-scale change re-enumerated: misses %d -> %d",
			misses, final["sim.enum_cache.misses"])
	}
}

// TestEnumerationMemoMatchesFresh: an evaluator that has memoized sets must
// agree bit-identically with a fresh evaluator that enumerates cold.
func TestEnumerationMemoMatchesFresh(t *testing.T) {
	env, cfg := shardTestEnv(t)
	warm := NewEvaluator(env, cfg)
	if _, err := warm.Evaluate("Oracle", 1.5); err != nil {
		t.Fatal(err)
	}
	warmed, err := warm.Evaluate("Oracle", 1.5)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewEvaluator(env, cfg).Evaluate("Oracle", 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warmed, fresh) {
		t.Fatal("memo-served evaluation diverges from cold enumeration")
	}
}
