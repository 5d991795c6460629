package experiments

import (
	"bytes"
	"strings"
	"testing"

	"prete/internal/obs"
)

// TestFig8PipelineMetrics runs the end-to-end pipeline experiment twice —
// with and without a registry — and checks (a) the printed artifact is
// byte-identical, and (b) the instrumented run lights up every layer the
// acceptance criteria name: Benders iterations, scenario evaluations, and
// telemetry ingest.
func TestFig8PipelineMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline experiment; skipped in -short mode")
	}
	opts := Options{Seed: 2025, Quick: true}
	var plain bytes.Buffer
	if err := Run("fig8", &plain, opts); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	opts.Metrics = reg
	var metered bytes.Buffer
	if err := Run("fig8", &metered, opts); err != nil {
		t.Fatal(err)
	}
	if plain.String() != metered.String() {
		t.Errorf("fig8 output differs with metrics attached:\n%s\n---\n%s", plain.String(), metered.String())
	}
	if !strings.Contains(plain.String(), "degradation signals") {
		t.Errorf("fig8 output missing telemetry stage: %s", plain.String())
	}
	for _, c := range []string{
		"core.benders.iterations",
		"sim.scenarios.evaluated",
		"sim.deg_scenarios.evaluated",
		"ingest.samples.ingested",
		"ingest.flushes",
		"telemetry.samples.observed",
		"telemetry.degradations.detected",
	} {
		if reg.Counter(c).Value() == 0 {
			t.Errorf("counter %s is zero after fig8", c)
		}
	}
	if reg.Timer("ingest.tick.latency").Count() == 0 {
		t.Error("ingest tick latency not timed")
	}
	if reg.Timer("sim.scenario.eval_time").Count() == 0 {
		t.Error("scenario eval time not timed")
	}
}
