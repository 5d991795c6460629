package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func quickOpts() Options { return Options{Seed: 2025, Quick: true} }

func runExp(t *testing.T, id string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Run(id, &buf, quickOpts()); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	out := buf.String()
	if len(out) < 20 {
		t.Fatalf("%s produced almost no output: %q", id, out)
	}
	return out
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1a", "fig1b", "fig1c", "fig237", "fig4a", "fig4b", "fig5a", "fig5b",
		"fig6", "tab1", "tab6-7", "fig11", "tab3", "fig12", "fig13", "tab4",
		"tab5", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20a",
		"fig20b", "tab8",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(IDs()) < len(want) {
		t.Errorf("registry has %d experiments, want >= %d", len(IDs()), len(want))
	}
}

func TestRunUnknown(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("nope", &buf, quickOpts()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestTitles(t *testing.T) {
	for _, id := range IDs() {
		if Title(id) == "" {
			t.Errorf("experiment %s has no title", id)
		}
	}
}

func TestMeasurementExperiments(t *testing.T) {
	for _, id := range []string{"fig1a", "fig1b", "fig1c", "fig4a", "fig4b", "fig5a", "fig5b", "fig6", "tab1", "tab6-7", "fig12", "fig20a"} {
		id := id
		t.Run(id, func(t *testing.T) {
			out := runExp(t, id)
			if !strings.Contains(out, "\t") {
				t.Fatalf("%s output has no tabular rows", id)
			}
		})
	}
}

func TestTab1Significant(t *testing.T) {
	out := runExp(t, "tab1")
	if strings.Contains(out, "false") {
		t.Fatalf("a critical feature failed significance:\n%s", out)
	}
}

func TestFig237Numbers(t *testing.T) {
	out := runExp(t, "fig237")
	if !strings.Contains(out, "total 10 units") {
		t.Errorf("TeaVaR joint optimum should be 10 units:\n%s", out)
	}
	if !strings.Contains(out, "total 20 units") {
		t.Errorf("oracle optimum should be 20 units:\n%s", out)
	}
	if !strings.Contains(out, "PreTE 10 units vs TeaVaR 5 units") {
		t.Errorf("post-cut throughput should be 10 vs 5:\n%s", out)
	}
}

func TestTab3MatchesTable(t *testing.T) {
	out := runExp(t, "tab3")
	for _, row := range []string{"IBM\t25\t85\t340\t24", "B4\t19\t52\t208\t24"} {
		if !strings.Contains(out, row) {
			t.Errorf("missing row %q in:\n%s", row, out)
		}
	}
}

func TestFig11Structure(t *testing.T) {
	out := runExp(t, "fig11")
	for _, stage := range []string{"detection", "model_inference", "tunnel_update", "te_compute", "total"} {
		if !strings.Contains(out, stage) {
			t.Errorf("missing stage %s", stage)
		}
	}
}

func TestFig18ProductionCase(t *testing.T) {
	out := runExp(t, "fig18")
	if !strings.Contains(out, "traditional-backup\t300") {
		t.Errorf("traditional backup should lose 300 Gbps:\n%s", out)
	}
	if !strings.Contains(out, "PreTE\t0") {
		t.Errorf("PreTE should avoid sustained loss:\n%s", out)
	}
}

func TestAvailabilityExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("minutes-long evaluation suite; skipped in -short mode")
	}
	for _, id := range []string{"fig16", "fig20b"} {
		id := id
		t.Run(id, func(t *testing.T) {
			runExp(t, id)
		})
	}
}

func TestPredictionExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("model training in -short mode")
	}
	out := runExp(t, "tab5")
	if !strings.Contains(out, "NN\t") || !strings.Contains(out, "TeaVar\t") {
		t.Fatalf("tab5 missing model rows:\n%s", out)
	}
}
