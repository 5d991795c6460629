package fault

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateFailoverGolden = flag.Bool("update-failover-golden", false,
	"rewrite the failover event golden file with the current trace")

// TestFailoverGoldenReplay pins the ordered event log of the fixed-seed F1
// failover trace — leader epochs, site mirroring, heartbeat misses, lease
// expiry, election, fenced promotion with its fence-probe pings, fleet
// re-assert, the post-failover epoch, and the zombie's fenced write — to a
// committed golden file. Every line
// is float-free and wall-clock-free by construction (the EventLog contract),
// so the comparison is exact: any diff means the failover control flow
// itself changed and must be reviewed (regenerate with `go test
// ./internal/fault -run TestFailoverGoldenReplay -update-failover-golden`).
func TestFailoverGoldenReplay(t *testing.T) {
	run := runFailoverScenario(t, failoverMatrix[0]) // F1: clean leader crash
	got := strings.Join(run.Events, "\n") + "\n"
	golden := filepath.Join("testdata", "failover_events.golden")
	if *updateFailoverGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d events)", golden, len(run.Events))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update-failover-golden): %v", err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimRight(string(want), "\n"), "\n")
	gotLines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	n := len(wantLines)
	if len(gotLines) < n {
		n = len(gotLines)
	}
	for i := 0; i < n; i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("event %d diverged from golden:\n got:  %q\n want: %q\n(%d events vs %d in golden)",
				i+1, gotLines[i], wantLines[i], len(gotLines), len(wantLines))
		}
	}
	t.Fatalf("event count diverged from golden: %d events, golden has %d\nfirst extra: %q",
		len(gotLines), len(wantLines),
		append(gotLines, wantLines...)[n])
}
