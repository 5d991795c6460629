package experiments

import (
	"bytes"
	"strings"
	"testing"

	"prete/internal/obs"
)

// TestGeorepExperiment runs the quick cross-site replication sweep end to
// end and checks its invariants: every cell promotes site 1 with a plan
// immediately available and a matching replicated mirror, the lossy cell
// (drop 0.6 at retention 1) needed at least one re-sync, every
// promotion stays inside one TE period, and the georep/replication series
// are mirrored into the caller's registry. The wall-clock column
// (promote_ms) is not asserted.
func TestGeorepExperiment(t *testing.T) {
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	if err := Run("georep", &buf, Options{Seed: 2025, Quick: true, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	var rows [][]string
	for _, line := range strings.Split(out, "\n") {
		switch {
		case line == "" || strings.HasPrefix(line, "==") || strings.HasPrefix(line, "#"),
			strings.HasPrefix(line, "drop"):
		default:
			rows = append(rows, strings.Split(line, "\t"))
		}
	}
	if len(rows) != 2 { // quick mode: retention 1 x drop {0, 0.6}
		t.Fatalf("georep quick sweep printed %d cells, want 2:\n%s", len(rows), out)
	}
	for i, row := range rows {
		if len(row) != 11 {
			t.Fatalf("row %d has %d columns, want 11: %v", i, len(row), row)
		}
		if row[2] != "1" {
			t.Errorf("cell %d promoted site %s, want the lowest site 1: %v", i, row[2], row)
		}
		if row[3] == "0" {
			t.Errorf("cell %d reports zero detection ticks: %v", i, row)
		}
		if row[6] != "1" {
			t.Errorf("cell %d promoted without an available plan: %v", i, row)
		}
		if row[7] != "1" {
			t.Errorf("cell %d promoted with a mirror mismatch: %v", i, row)
		}
		if row[10] != "yes" {
			t.Errorf("cell %d promotion exceeded one TE period: %v", i, row)
		}
	}
	// The clean cell ships without loss; the lossy cell must have resent
	// frames and re-synced by snapshot at the tight retention.
	if clean := rows[0]; clean[4] != "0" || clean[5] != "0" {
		t.Errorf("clean cell reports re-syncs/resends: %v", clean)
	}
	if lossy := rows[1]; lossy[4] == "0" || lossy[5] == "0" {
		t.Errorf("lossy cell at retention 1 never re-synced or resent: %v", lossy)
	}
	if reg.Counter("wan.failover.promotions").Value() == 0 {
		t.Error("wan.failover.promotions not mirrored into the experiment registry")
	}
	if reg.Counter("wan.georep.elections").Value() == 0 {
		t.Error("wan.georep.elections not mirrored into the experiment registry")
	}
	if reg.Counter("persist.repl.shipped").Value() == 0 {
		t.Error("persist.repl.shipped not mirrored into the experiment registry")
	}
}
