package scenario_test

import (
	"testing"

	"prete/internal/scenario"
	"prete/internal/sim"
	"prete/internal/topology"
	"prete/internal/trace"
)

// TestEnumerateFingerprintsPinned records the sets Enumerate builds for the
// three evaluation topologies' static probabilities and for one three-fiber
// storm calibration with triples (sim.BuildEnv, seed 2025). A change to the
// sweep order, the probability product, the stable sort or the cap moves
// them.
func TestEnumerateFingerprintsPinned(t *testing.T) {
	cfg := sim.DefaultConfig()
	cases := []struct {
		name, topo string
		storm      int // fibers calibrated to PCutGivenDeg; 0 = static p_i
		size       int
		want       string
	}{
		{"B4 static", "B4", 0, 191, "0a7093ef61145632"},
		{"IBM static", "IBM", 0, 326, "9c07d1b64d424d1a"},
		{"TWAN static", "TWAN", 0, 1035, "23fe7896e8acc7a8"},
		{"IBM storm of 3, triples", "IBM", 3, 1525, "a6aa27eb701589d8"},
	}
	for _, c := range cases {
		env, err := sim.BuildEnv(c.topo, 2025, cfg)
		if err != nil {
			t.Fatal(err)
		}
		probs, opts := scenario.Static(env.PI), scenario.DefaultOptions()
		if c.storm > 0 {
			degraded := map[topology.FiberID]float64{}
			for _, f := range env.StormFibers(c.storm) {
				degraded[topology.FiberID(f)] = trace.PCutGivenDeg
			}
			if probs, err = scenario.Calibrated(env.PI, degraded, cfg.Alpha); err != nil {
				t.Fatal(err)
			}
			opts.MaxFailures = 3
		}
		set, err := scenario.Enumerate(probs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := set.Fingerprint().String(); got != c.want || len(set.Scenarios) != c.size {
			t.Errorf("%s: fingerprint %s over %d scenarios, want %s over %d",
				c.name, got, len(set.Scenarios), c.want, c.size)
		}
	}
}
