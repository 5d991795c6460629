package te

import (
	"math"
	"testing"

	"prete/internal/routing"
	"prete/internal/topology"
)

// TestFiberSetMatchesMapDefinition checks the bitset survival test against
// the map definition of T_{f,q} on every tunnel of B4, IBM and TWAN under
// every single and double cut: a tunnel survives exactly when no link of
// its path rides a cut fiber. It also checks the map form of Delivered
// against the set form under each cut, bit for bit.
func TestFiberSetMatchesMapDefinition(t *testing.T) {
	for _, name := range []string{"B4", "IBM", "TWAN"} {
		net, err := topology.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ts, err := routing.BuildTunnels(net, routing.Flows(net), 4)
		if err != nil {
			t.Fatal(err)
		}
		plan := &Plan{Alloc: Allocation{}, Tunnels: ts}
		for _, tn := range ts.Tunnels {
			plan.Alloc[tn.ID] = 0.5 + float64(tn.ID%7)/3
		}
		check := func(m map[topology.FiberID]bool) {
			var s topology.FiberSet
			for f := range m {
				s.Add(f)
			}
			for i := range ts.Tunnels {
				tn := &ts.Tunnels[i]
				want := true
				for _, lid := range tn.Links {
					for _, f := range net.Link(lid).Fibers {
						want = want && !m[f]
					}
				}
				if got := tn.AvailableUnder(s); got != want {
					t.Fatalf("%s: tunnel %d under cut %v: AvailableUnder %v, map definition %v", name, tn.ID, m, got, want)
				}
			}
			for _, fl := range ts.Flows {
				a, b := Delivered(plan, fl.ID, 3, m), DeliveredUnder(plan, fl.ID, 3, s)
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("%s: flow %d under cut %v: Delivered %v, DeliveredUnder %v", name, fl.ID, m, a, b)
				}
			}
		}
		for i := range net.Fibers {
			check(map[topology.FiberID]bool{topology.FiberID(i): true})
			for j := i + 1; j < len(net.Fibers); j++ {
				check(map[topology.FiberID]bool{topology.FiberID(i): true, topology.FiberID(j): true})
			}
		}
	}
}
