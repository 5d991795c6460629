package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"prete/internal/stats"
	"prete/internal/te"
)

// pinHash is FNV-64a over the bits of every per-flow availability, in flow
// order: two evaluations hash alike only if they agree bit for bit.
func pinHash(a Availability) uint64 {
	h := fnv.New64a()
	for _, v := range a.PerFlow {
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
	return h.Sum64()
}

// TestEvaluatePinned pins every evaluation entry point bit for bit on B4 at
// seed 2025 with trimmed enumeration: each scheme Evaluate accepts at two
// scales, the ratio knob, stale planned demands, and both storm paths, one
// hash per call (one per tier for the classed storm). Each call runs on a
// fresh Evaluator, so no pin depends on what an earlier call cached.
func TestEvaluatePinned(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ScenarioOpts.MaxScenarios = 60
	cfg.MaxDegScenarios = 2
	env, err := BuildEnv("B4", 2025, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A storm calibrates two fibers high at once; covering beta then needs
	// triple-failure scenarios.
	stormCfg := cfg
	stormCfg.ScenarioOpts.MaxFailures = 3
	got := map[string]uint64{}
	record := func(name string, a Availability, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = pinHash(a)
	}

	for _, s := range []string{"ECMP", "FFC-1", "FFC-2", "TeaVar", "ARROW", "Flexile", "Oracle", "PreTE", "PreTE-naive"} {
		for _, scale := range []float64{1, 5} {
			a, err := NewEvaluator(env, cfg).Evaluate(s, scale)
			record(fmt.Sprintf("%s@%g", s, scale), a, err)
		}
	}
	a, err := NewEvaluator(env, cfg).EvaluatePreTERatio(1.5, 2)
	record("PreTE ratio 2@1.5", a, err)

	truth := env.BaseDemands.Scale(2)
	rng := stats.NewRNG(99)
	stale := make(te.Demands, len(truth))
	for i, d := range truth {
		stale[i] = math.Max(0, d*(1+0.15*rng.NormFloat64()))
	}
	for _, s := range []string{"TeaVar", "PreTE"} {
		a, err := NewEvaluator(env, cfg).EvaluateDemands(s, stale, truth)
		record("stale "+s, a, err)
	}

	storm := env.StormFibers(2)
	for _, s := range []string{"PreTE", "TeaVar"} {
		a, err := NewEvaluator(env, stormCfg).EvaluateStormUniform(s, 2, storm)
		record("storm "+s, a, err)
	}
	ca, _, err := NewEvaluator(env, stormCfg).EvaluateStormClassed(2, storm, te.DefaultClassSpec())
	if err != nil {
		t.Fatalf("classed storm: %v", err)
	}
	for k, tier := range ca.Tiers {
		record("classed storm "+tier, ca.PerTier[k], nil)
	}

	want := map[string]uint64{
		"ECMP@1":             0xb8ccda4cc5899baa,
		"ECMP@5":             0xc38bea895c0653a5,
		"FFC-1@1":            0x175f701c413c9184,
		"FFC-1@5":            0xea426af4345d8cc6,
		"FFC-2@1":            0xdc44e179d08bbb4a,
		"FFC-2@5":            0xa97a23d00f995029,
		"TeaVar@1":           0x425754264a0cca41,
		"TeaVar@5":           0x6689633698922c50,
		"ARROW@1":            0x0f5530a460dd98bd,
		"ARROW@5":            0x1eaf2ca926ace88e,
		"Flexile@1":          0x2d74ebac4845c79f,
		"Flexile@5":          0xbeabad3be0ebb764,
		"Oracle@1":           0x46c89039e60c0fc1,
		"Oracle@5":           0x0046b59e25f7473e,
		"PreTE@1":            0x966a92434ae6a07a,
		"PreTE@5":            0x32c86af47e581122,
		"PreTE-naive@1":      0x7dfd63686ad3b62d,
		"PreTE-naive@5":      0x65869e6e2e539e32,
		"PreTE ratio 2@1.5":  0xc2b34b66d388f9bf,
		"stale TeaVar":       0xaa863a7749ee0d13,
		"stale PreTE":        0xf4e58b1808a7e7cd,
		"storm PreTE":        0x9d13216b3fbc4053,
		"storm TeaVar":       0x70c2734ba0421f60,
		"classed storm lc":   0xb4c28acab7516a91,
		"classed storm std":  0xaf7f4d06f6270714,
		"classed storm bulk": 0x110854c2385b71cb,
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		if w, ok := want[name]; !ok || got[name] != w {
			t.Errorf("%q: %#x, want %#x", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d pinned calls, want %d", len(got), len(want))
	}
}
