package core

import (
	"fmt"
	"reflect"
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

func TestBuildClassesParallelMatchesSerial(t *testing.T) {
	for _, topo := range []string{"B4", "IBM"} {
		in := realInput(t, topo, 11)
		want := BuildClassesP(in.Tunnels, in.Scenarios, 1)
		for _, p := range []int{2, 8, 0} {
			got := BuildClassesP(in.Tunnels, in.Scenarios, p)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: BuildClassesP(%d) diverges from serial (%d vs %d classes)",
					topo, p, len(got), len(want))
			}
		}
	}
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

// TestBuildClassesMatchesOracle compares BuildClassesP with naiveClasses —
// Flow, Avail, Prob bit for bit, and order — at every parallelism level. The
// third tunnel set has been through three degradations, so some flows carry
// more than four tunnels, reactive ones among them. In the fourth, two flows
// carry 74 and 134 tunnels, so their surviving-set masks span several
// words and end mid-byte.
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
		for _, p := range []int{1, 2, 8} {
			if got := BuildClassesP(tc.ts, tc.set, p); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: BuildClassesP(%d) differs from the naive builder (%d vs %d classes)", tc.name, p, len(got), len(want))
			}
		}
	}
}

// TestSolveDeterministicAcrossParallelism is the PR's headline guarantee:
// the Benders solve returns bit-identical results — allocation, objective,
// bounds, iteration count, and scenario selection — at every parallelism
// setting, on both evaluation topologies.
func TestSolveDeterministicAcrossParallelism(t *testing.T) {
	for _, topo := range []string{"B4", "IBM"} {
		in := realInput(t, topo, 23)
		serial := DefaultOptimizer()
		serial.Parallelism = 1
		want, err := serial.Solve(in)
		if err != nil {
			t.Fatalf("%s serial: %v", topo, err)
		}
		for _, p := range []int{2, 8, 0} {
			opt := DefaultOptimizer()
			opt.Parallelism = p
			got, err := opt.Solve(in)
			if err != nil {
				t.Fatalf("%s parallelism %d: %v", topo, p, err)
			}
			if !reflect.DeepEqual(got.Alloc, want.Alloc) {
				t.Errorf("%s parallelism %d: allocation diverges", topo, p)
			}
			if got.Phi != want.Phi || got.LB != want.LB || got.UB != want.UB {
				t.Errorf("%s parallelism %d: phi/LB/UB = %v/%v/%v, want %v/%v/%v",
					topo, p, got.Phi, got.LB, got.UB, want.Phi, want.LB, want.UB)
			}
			if got.Iterations != want.Iterations {
				t.Errorf("%s parallelism %d: %d iterations, want %d", topo, p, got.Iterations, want.Iterations)
			}
			if !reflect.DeepEqual(got.Selected, want.Selected) {
				t.Errorf("%s parallelism %d: scenario selection diverges", topo, p)
			}
		}
	}
}
