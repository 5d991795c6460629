package experiments

import (
	"bytes"
	"strings"
	"testing"

	"prete/internal/obs"
)

// TestFailoverExperiment runs the quick controller failover sweep end to
// end and checks its invariants: every cell promotes site 1 (the lowest
// live standby) with a journaled plan immediately available and a matching
// replicated mirror, detection lands within the tick budget, every
// promotion stays inside one TE period, and the election/failover series
// are mirrored into the caller's registry. The wall-clock column
// (promote_ms) is not asserted.
func TestFailoverExperiment(t *testing.T) {
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	if err := Run("failover", &buf, Options{Seed: 2025, Quick: true, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	var rows [][]string
	for _, line := range strings.Split(out, "\n") {
		switch {
		case line == "" || strings.HasPrefix(line, "==") || strings.HasPrefix(line, "#"),
			strings.HasPrefix(line, "sites"):
		default:
			rows = append(rows, strings.Split(line, "\t"))
		}
	}
	if len(rows) != 2 { // quick mode: 1 site count x {clean, mid-epoch} crash points
		t.Fatalf("failover quick sweep printed %d cells, want 2:\n%s", len(rows), out)
	}
	for i, row := range rows {
		if len(row) != 9 {
			t.Fatalf("row %d has %d columns, want 9: %v", i, len(row), row)
		}
		if row[2] != "1" {
			t.Errorf("cell %d promoted site %s, want the lowest live site 1: %v", i, row[2], row)
		}
		if row[3] == "0" {
			t.Errorf("cell %d reports zero detection ticks: %v", i, row)
		}
		if row[4] != "1" {
			t.Errorf("cell %d promoted without an available plan: %v", i, row)
		}
		if row[5] != "1" {
			t.Errorf("cell %d promoted with a mirror mismatch: %v", i, row)
		}
		if row[8] != "yes" {
			t.Errorf("cell %d promotion exceeded one TE period: %v", i, row)
		}
	}
	if reg.Counter("wan.failover.promotions").Value() == 0 {
		t.Error("wan.failover.promotions not mirrored into the experiment registry")
	}
	if reg.Counter("wan.georep.elections").Value() == 0 {
		t.Error("wan.georep.elections not mirrored into the experiment registry")
	}
	if reg.Counter("persist.repl.tailed").Value() == 0 {
		t.Error("persist.repl.tailed not mirrored into the experiment registry")
	}
}
