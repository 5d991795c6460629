package experiments

import (
	"io"
	"testing"

	"prete/internal/obs"
	"prete/internal/wan"
)

// TestBudgetReachesEverySolve pins Options.Budget's promise for the
// experiments that plan epochs on their own optimizer: at one work unit
// every one of them must exhaust the budget, and the testbed the
// control-plane sweeps and fig11 start must carry it.
func TestBudgetReachesEverySolve(t *testing.T) {
	for _, id := range []string{"fig8", "fig16", "fig18", "fig19", "fig237"} {
		t.Run(id, func(t *testing.T) {
			reg := obs.NewRegistry()
			opts := quickOpts()
			opts.Budget, opts.Metrics = 1, reg
			if err := Run(id, io.Discard, opts); err != nil {
				t.Fatal(err)
			}
			if n := reg.Counter("core.budget.exhausted").Value(); n == 0 {
				t.Errorf("%s at -budget 1 exhausted no solve budget", id)
			}
		})
	}
	tb, err := newTestbed(Options{Budget: 1}, fastSwitch, wan.TCPTransport{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if tb.SolveUnits != 1 {
		t.Errorf("testbed SolveUnits = %d, want 1", tb.SolveUnits)
	}
}
