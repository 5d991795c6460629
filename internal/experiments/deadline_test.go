package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// TestDeadlineExperiment runs the quick deadline sweep and checks its
// structure and the anytime invariants it is meant to demonstrate: every
// row names a valid degradation rung, gaps are nonnegative and shrink to
// zero at unlimited budget, and the whole table — deterministic work units
// only, no wall clock — is byte-identical across parallelism settings.
func TestDeadlineExperiment(t *testing.T) {
	run := func(parallelism int) string {
		t.Helper()
		var buf bytes.Buffer
		if err := Run("deadline", &buf, Options{Seed: 2025, Quick: true, Parallelism: parallelism}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	out := run(1)
	var rows [][]string
	for _, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, "==") || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "topology") {
			continue
		}
		rows = append(rows, strings.Split(line, "\t"))
	}
	if len(rows) != 4 { // quick mode: B4 x 4 budgets
		t.Fatalf("deadline quick sweep printed %d rows, want 4:\n%s", len(rows), out)
	}
	prevGap := -1.0
	rungs := map[string]bool{}
	for i, row := range rows {
		if len(row) != 7 {
			t.Fatalf("row %d has %d columns, want 7: %v", i, len(row), row)
		}
		gap, err := strconv.ParseFloat(row[3], 64)
		if err != nil || gap < -1e-9 {
			t.Errorf("row %d gap = %q, want a nonnegative float", i, row[3])
		}
		if prevGap >= 0 && gap > prevGap+1e-9 {
			t.Errorf("row %d gap %v grew from previous row's %v despite a larger budget", i, gap, prevGap)
		}
		prevGap = gap
		switch row[4] {
		case "optimal", "truncated", "heuristic":
			rungs[row[4]] = true
		default:
			t.Errorf("row %d rung = %q", i, row[4])
		}
	}
	// The ladder is fixed, the solver's pivot counts are not: a cheaper
	// solve can slide under a budget and lose the sweep a rung.
	if len(rungs) != 3 {
		t.Errorf("quick ladder shows rungs %v, want all of heuristic, truncated, optimal — rescale deadline's budgets:\n%s", rungs, out)
	}
	last := rows[len(rows)-1]
	if last[1] != "inf" || last[4] != "optimal" {
		t.Errorf("final row should be the unlimited optimal baseline, got %v", last)
	}
	for _, p := range []int{2, 0} {
		if got := run(p); got != out {
			t.Fatalf("deadline output differs between parallelism 1 and %d", p)
		}
	}
}
