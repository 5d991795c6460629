package core

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"prete/internal/routing"
	"prete/internal/scenario"
	"prete/internal/stats"
	"prete/internal/te"
	"prete/internal/topology"
)

// realInput builds a full-topology optimizer input with per-fiber failure
// probabilities drawn from a seeded RNG, at the scale the determinism table
// exercises.
func realInput(t *testing.T, topo string, seed uint64) *te.Input {
	t.Helper()
	net, err := topology.ByName(topo)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := routing.BuildTunnels(net, routing.Flows(net), 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(seed)
	probs := make([]float64, len(net.Fibers))
	for i := range probs {
		probs[i] = 0.001 + 0.02*rng.Float64()
	}
	set, err := scenario.Enumerate(probs, scenario.Options{Cutoff: 1e-9, MaxFailures: 2, MaxScenarios: 200})
	if err != nil {
		t.Fatal(err)
	}
	demands := make(te.Demands, len(ts.Flows))
	for i := range demands {
		demands[i] = 20 + 10*rng.Float64()
	}
	return &te.Input{Net: net, Tunnels: ts, Demands: demands, Scenarios: set, Beta: 0.99}
}

// naiveClasses is the reference class builder: one cut-set map per
// scenario, a tunnel surviving when no fiber under any of its links is
// cut, merge by the printed surviving set — the definition of a
// failure-equivalence class, with no attention to cost.
func naiveClasses(ts *routing.TunnelSet, set *scenario.Set) []Class {
	var out []Class
	for _, fl := range ts.Flows {
		at := make(map[string]int)
		for _, sc := range set.Scenarios {
			cut := sc.CutSet()
			var avail []routing.TunnelID
			for _, tid := range ts.TunnelsOf(fl.ID) {
				up := true
				for _, lid := range ts.Tunnel(tid).Links {
					for _, f := range ts.Net.Link(lid).Fibers {
						up = up && !cut[f]
					}
				}
				if up {
					avail = append(avail, tid)
				}
			}
			i, ok := at[fmt.Sprint(avail)]
			if !ok {
				i = len(out)
				at[fmt.Sprint(avail)] = i
				out = append(out, Class{Flow: fl.ID, Avail: avail})
			}
			out[i].Prob += sc.Prob
		}
	}
	return out
}

// TestBuildClassesMatchesOracle compares buildClasses with naiveClasses —
// Flow, Avail, Prob bit for bit, and order. The third tunnel set has been
// through three degradations, so some flows carry more than four tunnels,
// reactive ones among them. In the fourth, two flows carry 74 and 134
// tunnels, so their surviving-set masks span several words and end
// mid-byte.
func TestBuildClassesMatchesOracle(t *testing.T) {
	b4, ibm := realInput(t, "B4", 11), realInput(t, "IBM", 11)
	updated := b4.Tunnels
	for _, fiber := range []topology.FiberID{3, 7, 12} {
		res, err := UpdateTunnels(updated, fiber, 1)
		if err != nil {
			t.Fatal(err)
		}
		updated = res.Tunnels
	}
	if updated.NumTunnels() == b4.Tunnels.NumTunnels() {
		t.Fatal("three degradations established no reactive tunnel")
	}
	wide := b4.Tunnels.Clone()
	for i, extra := range []int{70, 130} {
		fl := wide.Flows[i]
		for _, p := range routing.KShortest(wide.Net, fl.Src, fl.Dst, extra, nil) {
			wide.AddTunnel(fl.ID, p)
		}
		if n := len(wide.TunnelsOf(fl.ID)); n != 4+extra {
			t.Fatalf("flow %d has %d tunnels, want %d", fl.ID, n, 4+extra)
		}
	}
	for _, tc := range []struct {
		name string
		ts   *routing.TunnelSet
		set  *scenario.Set
	}{
		{"B4", b4.Tunnels, b4.Scenarios},
		{"IBM", ibm.Tunnels, ibm.Scenarios},
		{"B4 after three UpdateTunnels", updated, b4.Scenarios},
		{"B4 with two flows wider than 64 tunnels", wide, b4.Scenarios},
	} {
		want := naiveClasses(tc.ts, tc.set)
		if got := buildClasses(tc.ts, tc.set).classes; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: buildClasses differs from the naive builder (%d vs %d classes)", tc.name, len(got), len(want))
		}
	}
}

// concurrentLevels are the goroutine counts the determinism tests call one
// Optimizer from at once.
var concurrentLevels = []int{1, 2, 8}

// concurrently calls solve from n goroutines at once, the way sim's
// degradation-scenario workers share one Optimizer, and returns each
// call's result in goroutine order.
func concurrently[T any](n int, solve func() (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range out {
		go func() {
			defer wg.Done()
			out[i], errs[i] = solve()
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// checkSameResult fails t unless got matches want bit for bit in every
// field a solve decides: allocation, objective, bounds, iteration count
// and scenario selection.
func checkSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Alloc, want.Alloc) {
		t.Errorf("%s: allocation diverges", label)
	}
	if got.Phi != want.Phi || got.LB != want.LB || got.UB != want.UB {
		t.Errorf("%s: phi/LB/UB = %v/%v/%v, want %v/%v/%v",
			label, got.Phi, got.LB, got.UB, want.Phi, want.LB, want.UB)
	}
	if got.Iterations != want.Iterations {
		t.Errorf("%s: %d iterations, want %d", label, got.Iterations, want.Iterations)
	}
	if !reflect.DeepEqual(got.Selected, want.Selected) {
		t.Errorf("%s: scenario selection diverges", label)
	}
}

// TestSolveDeterministicAcrossParallelism pins the contract sim's
// evaluator relies on: one Optimizer called from many goroutines at once
// returns, on every call, the result a serial call returns, on both
// evaluation topologies.
func TestSolveDeterministicAcrossParallelism(t *testing.T) {
	for _, topo := range []string{"B4", "IBM"} {
		in := realInput(t, topo, 23)
		opt := DefaultOptimizer()
		want, err := opt.Solve(in)
		if err != nil {
			t.Fatalf("%s serial: %v", topo, err)
		}
		for _, n := range concurrentLevels {
			got, err := concurrently(n, func() (*Result, error) { return opt.Solve(in) })
			if err != nil {
				t.Fatalf("%s %d goroutines: %v", topo, n, err)
			}
			for i, r := range got {
				checkSameResult(t, fmt.Sprintf("%s goroutine %d of %d", topo, i, n), r, want)
			}
		}
	}
}
