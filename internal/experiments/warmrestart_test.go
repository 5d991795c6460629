package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"prete/internal/obs"
)

// TestWarmrestartExperiment runs the quick crash-restart sweep end to end
// and checks its invariants: every warm cell resumes with a plan
// (plan_avail 1) and a recovered epoch, every cold cell starts empty
// (plan_avail 0), the B4-scale recovery lands inside one TE period, and
// the recovery series are mirrored into the caller's registry. Wall-clock
// columns (recovery_ms, ttfvp_ms) are not asserted.
func TestWarmrestartExperiment(t *testing.T) {
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	if err := Run("warmrestart", &buf, Options{Seed: 2025, Quick: true, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	rows, b4 := warmrestartRows(out)
	if len(rows) != 4 { // quick mode: 2 crash points x {cold, warm}
		t.Fatalf("warmrestart quick sweep printed %d cells, want 4:\n%s", len(rows), out)
	}
	for i, row := range rows {
		if len(row) != 7 {
			t.Fatalf("row %d has %d columns, want 7: %v", i, len(row), row)
		}
		switch row[1] {
		case "cold":
			if row[2] != "0" {
				t.Errorf("cold cell %d claims a plan after restart: %v", i, row)
			}
		case "warm":
			if row[2] != "1" {
				t.Errorf("warm cell %d has no plan after restart: %v", i, row)
			}
			if row[3] == "0" {
				t.Errorf("warm cell %d recovered epoch 0: %v", i, row)
			}
		default:
			t.Errorf("row %d has unknown mode %q", i, row[1])
		}
	}
	if b4 == nil {
		t.Fatalf("no B4 recovery-timing row printed:\n%s", out)
	}
	if b4[6] != "yes" {
		t.Errorf("B4 recovery did not land within one TE period: %v", b4)
	}
	if reg.Counter("wan.recovery.warm").Value() == 0 {
		t.Error("wan.recovery.warm not mirrored into the experiment registry")
	}
	if reg.Counter("fault.ctlcrash.halts").Value() == 0 {
		t.Error("fault.ctlcrash.halts not mirrored into the experiment registry")
	}
	if reg.Counter("persist.appends").Value() == 0 {
		t.Error("persist.appends not mirrored into the experiment registry")
	}
}

// warmrestartRows splits the sweep's output into its crash-point cells and
// the B4 recovery-timing row.
func warmrestartRows(out string) (rows [][]string, b4 []string) {
	for _, line := range strings.Split(out, "\n") {
		switch {
		case line == "" || strings.HasPrefix(line, "==") || strings.HasPrefix(line, "#"),
			strings.HasPrefix(line, "crash_rpc"), strings.HasPrefix(line, "topology"):
		case strings.HasPrefix(line, "B4\t"):
			b4 = strings.Split(line, "\t")
		default:
			rows = append(rows, strings.Split(line, "\t"))
		}
	}
	return rows, b4
}

// TestWarmrestartFullCrashSet runs the full-fidelity sweep: every crash
// point from 0 to the last RPC an unfaulted epoch 2 issues halts that
// epoch, each in a cold and a warm cell, and a crash after all n of them
// halts nothing, so the set leaves no RPC out.
func TestWarmrestartFullCrashSet(t *testing.T) {
	n, err := epoch2RPCs(Options{Seed: 2025})
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 {
		t.Fatalf("epoch 2 issued %d RPCs", n)
	}
	if _, err := warmrestartCell(Options{Seed: 2025}, n, false); err == nil || !strings.Contains(err.Error(), "did not halt") {
		t.Errorf("a crash after all %d RPCs of epoch 2: %v, want it not to halt the epoch", n, err)
	}
	var buf bytes.Buffer
	if err := Run("warmrestart", &buf, Options{Seed: 2025}); err != nil {
		t.Fatal(err)
	}
	rows, _ := warmrestartRows(buf.String())
	if len(rows) != 2*int(n) {
		t.Fatalf("full sweep printed %d cells, want 2 x %d crash points:\n%s", len(rows), n, buf.String())
	}
	for i, row := range rows {
		if want := strconv.Itoa(i / 2); row[0] != want {
			t.Errorf("cell %d crashes after %s RPCs, want %s", i, row[0], want)
		}
	}
}
