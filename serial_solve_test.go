package prete

import (
	"testing"

	"prete/internal/core"
	"prete/internal/obs"
	"prete/internal/par"
	"prete/internal/routing"
	"prete/internal/scenario"
	"prete/internal/te"
	"prete/internal/topology"
)

// TestSolvesRunNoParTask pins that every solve runs on its caller's
// goroutine: an online epoch on B4 — uniform, classed, and a
// probability-only cache revalidation — submits no task to the par pool,
// whose one user is the offline evaluation. The pool's metrics hook is
// process-wide, so this test must not run in parallel with others.
func TestSolvesRunNoParTask(t *testing.T) {
	reg := obs.NewRegistry()
	par.SetMetrics(reg)
	t.Cleanup(func() { par.SetMetrics(nil) })
	tasks := func(after string) {
		t.Helper()
		if n := reg.Counter("par.tasks").Value(); n != 0 {
			t.Fatalf("%s: %d par tasks, want 0", after, n)
		}
	}

	net, err := topology.ByName("B4")
	if err != nil {
		t.Fatal(err)
	}
	ts, err := routing.BuildTunnels(net, routing.Flows(net), 4)
	if err != nil {
		t.Fatal(err)
	}
	pi := make([]float64, len(net.Fibers))
	for i := range pi {
		pi[i] = 1e-3
	}
	demands := make(te.Demands, len(ts.Flows))
	for i := range demands {
		demands[i] = 30
	}
	p := core.New()
	p.ScenarioOpts.MaxScenarios = 150
	l := core.NewLoop(p, core.EpochInput{Net: net, Tunnels: ts, Demands: demands, Beta: 0.99, PI: pi})
	l.Signal(3, 0.6)
	if _, err := l.Plan(); err != nil {
		t.Fatal(err)
	}
	tasks("a uniform Loop.Plan")
	l.Classes = te.DefaultClassSpec()
	if _, err := l.Plan(); err != nil {
		t.Fatal(err)
	}
	tasks("a classed Loop.Plan")

	o := core.DefaultOptimizer()
	cache := &core.SolveCache{}
	for _, scale := range []float64{1, 1.2} {
		probs := make([]float64, len(pi))
		for i := range probs {
			probs[i] = scale * (1e-3 + 1e-4*float64(i))
		}
		set, err := scenario.Enumerate(probs, p.ScenarioOpts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := o.SolveCached(&te.Input{Net: net, Tunnels: ts, Demands: demands, Scenarios: set, Beta: 0.99}, cache); err != nil {
			t.Fatal(err)
		}
	}
	if st := cache.Stats(); st.Revalidations != 1 {
		t.Fatalf("cache stats %+v, want one revalidation", st)
	}
	tasks("a probability-only SolveCached revalidation")
}
