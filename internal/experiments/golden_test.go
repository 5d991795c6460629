package experiments

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with the current output")

// floatTol bounds the drift allowed on floating-point columns of golden
// output. Integer and text tokens must match exactly — a changed tunnel
// count or Benders iteration count is a behaviour change, not noise.
const floatTol = 1e-6

// TestFig8GoldenReplay pins the end-to-end B4 pipeline artifact to a
// committed golden file: same seed, same quick configuration, same printed
// figure. The pipeline is seeded and parallelism-invariant, so any diff
// beyond float formatting noise means the replayed epoch — telemetry,
// prediction, scenario set, TE plan, availability — actually changed and
// the golden file must be reviewed (regenerate with `go test -run
// TestFig8GoldenReplay -update ./internal/experiments`).
func TestFig8GoldenReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline experiment; skipped in -short mode")
	}
	var buf bytes.Buffer
	if err := Run("fig8", &buf, Options{Seed: 2025, Quick: true}); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "fig8_quick.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	compareGolden(t, string(want), buf.String())
}

// compareGolden diffs got against want line by line and token by token.
// Tokens that parse as floats with a decimal point compare within floatTol;
// everything else — words, integers, punctuation — compares exactly.
func compareGolden(t *testing.T, want, got string) {
	t.Helper()
	wantLines := strings.Split(strings.TrimRight(want, "\n"), "\n")
	gotLines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("golden mismatch: %d lines, want %d\n--- got ---\n%s\n--- want ---\n%s",
			len(gotLines), len(wantLines), got, want)
	}
	for li := range wantLines {
		wf, gf := strings.Fields(wantLines[li]), strings.Fields(gotLines[li])
		if len(wf) != len(gf) {
			t.Fatalf("line %d: %q vs golden %q", li+1, gotLines[li], wantLines[li])
		}
		for ti := range wf {
			if wf[ti] == gf[ti] {
				continue
			}
			wv, werr := strconv.ParseFloat(strings.TrimSuffix(wf[ti], ","), 64)
			gv, gerr := strconv.ParseFloat(strings.TrimSuffix(gf[ti], ","), 64)
			isFloat := strings.Contains(wf[ti], ".")
			// Both sides are printed to six decimals, so two values that
			// differ at all differ by a whole number of floatTol steps, and
			// one step apart reads as 1.0000000000288e-06 in binary. The
			// 1e-9 relative slack lets one step — floatTol — pass whichever
			// way that last bit rounds.
			if werr == nil && gerr == nil && isFloat && math.Abs(wv-gv) <= floatTol*(1+1e-9) {
				continue
			}
			t.Errorf("line %d token %d: got %q, golden %q\nline: %q", li+1, ti+1, gf[ti], wf[ti], gotLines[li])
		}
	}
}
