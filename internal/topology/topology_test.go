package topology

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestB4Shape(t *testing.T) {
	n, err := B4()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(n.Nodes); got != 12 {
		t.Errorf("B4 nodes = %d, want 12", got)
	}
	if got := len(n.Fibers); got != 19 {
		t.Errorf("B4 fibers = %d, want 19 (Table 3)", got)
	}
	if got := len(n.Links); got != 52 {
		t.Errorf("B4 IP links = %d, want 52 (Table 3)", got)
	}
}

func TestIBMShape(t *testing.T) {
	n, err := IBM()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(n.Nodes); got != 18 {
		t.Errorf("IBM nodes = %d, want 18", got)
	}
	if got := len(n.Fibers); got != 25 {
		t.Errorf("IBM fibers = %d, want 25", got)
	}
	if got := len(n.Links); got != 85 {
		t.Errorf("IBM IP links = %d, want 85 (Table 3)", got)
	}
}

// TestTriangle pins the §2.2/§5 triangle link by link: the testbed and
// fig237 plan on it, so its order decides their tunnels and LPs.
func TestTriangle(t *testing.T) {
	n, err := Triangle(10)
	if err != nil {
		t.Fatal(err)
	}
	wantNodes := []Node{{ID: 0, Name: "s1"}, {ID: 1, Name: "s2"}, {ID: 2, Name: "s3"}}
	wantFibers := []Fiber{
		{ID: 0, A: 0, B: 1, LengthKm: 100, Region: "testbed", Vendor: "voa"},
		{ID: 1, A: 0, B: 2, LengthKm: 100, Region: "testbed", Vendor: "voa"},
		{ID: 2, A: 1, B: 2, LengthKm: 100, Region: "testbed", Vendor: "voa"},
	}
	var wantLinks []Link
	for _, l := range [][3]int{{0, 1, 0}, {1, 0, 0}, {0, 2, 1}, {2, 0, 1}, {1, 2, 2}, {2, 1, 2}} {
		wantLinks = append(wantLinks, Link{ID: LinkID(len(wantLinks)), Src: NodeID(l[0]), Dst: NodeID(l[1]), Capacity: 10, Fibers: []FiberID{FiberID(l[2])}})
	}
	if !reflect.DeepEqual(n.Nodes, wantNodes) || !reflect.DeepEqual(n.Fibers, wantFibers) || !reflect.DeepEqual(n.Links, wantLinks) {
		t.Fatalf("Triangle(10) = %+v %+v %+v", n.Nodes, n.Fibers, n.Links)
	}
	if got := n.LinksOnFiber(2); !reflect.DeepEqual(got, []LinkID{4, 5}) {
		t.Fatalf("links on fiber 2 = %v, want [4 5]", got)
	}
}

// TestWithCapacities checks the copy replaces exactly the listed
// capacities, leaves the original alone and keeps the shared indices.
func TestWithCapacities(t *testing.T) {
	n, err := Triangle(10)
	if err != nil {
		t.Fatal(err)
	}
	if same := n.WithCapacities(nil); same != n {
		t.Fatal("an empty override copied the network")
	}
	c := n.WithCapacities(map[LinkID]float64{0: 6, 3: 0})
	for i, want := range []float64{6, 10, 10, 0, 10, 10} {
		if got := c.Links[i].Capacity; got != want {
			t.Errorf("copy link %d capacity = %v, want %v", i, got, want)
		}
		if got := n.Links[i].Capacity; got != 10 {
			t.Errorf("original link %d capacity = %v, want 10", i, got)
		}
	}
	if id, ok := c.LinkBetween(2, 0); !ok || id != 3 || c.LostCapacity(1) != 10 {
		t.Fatalf("copy indices: LinkBetween(2,0) = %v %v, LostCapacity(1) = %v", id, ok, c.LostCapacity(1))
	}
}

func TestTWANScale(t *testing.T) {
	n, err := TWAN(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(n.Fibers); got < 40 || got > 70 {
		t.Errorf("TWAN fibers = %d, want O(50)", got)
	}
	if got := len(n.Links); got < 90 || got > 130 {
		t.Errorf("TWAN IP links = %d, want O(100)", got)
	}
}

func TestTWANDeterminism(t *testing.T) {
	a, _ := TWAN(7)
	b, _ := TWAN(7)
	if len(a.Links) != len(b.Links) {
		t.Fatal("same-seed TWAN differs")
	}
	for i := range a.Links {
		if a.Links[i].Capacity != b.Links[i].Capacity {
			t.Fatalf("same-seed TWAN link %d capacity differs", i)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"B4", "IBM", "TWAN", "b4"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestValidationRejectsBadInput(t *testing.T) {
	nodes := []Node{{ID: 0}, {ID: 1}}
	fibers := []Fiber{{ID: 0, A: 0, B: 1}}
	cases := []struct {
		name  string
		links []Link
	}{
		{"self-loop", []Link{{ID: 0, Src: 0, Dst: 0, Capacity: 1, Fibers: []FiberID{0}}}},
		{"zero capacity", []Link{{ID: 0, Src: 0, Dst: 1, Capacity: 0, Fibers: []FiberID{0}}}},
		{"no fiber", []Link{{ID: 0, Src: 0, Dst: 1, Capacity: 1}}},
		{"unknown fiber", []Link{{ID: 0, Src: 0, Dst: 1, Capacity: 1, Fibers: []FiberID{9}}}},
		{"unknown node", []Link{{ID: 0, Src: 0, Dst: 5, Capacity: 1, Fibers: []FiberID{0}}}},
	}
	for _, c := range cases {
		if _, err := New("bad", nodes, fibers, c.links); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	if _, err := New("dup-node", []Node{{ID: 0}, {ID: 0}}, nil, nil); err == nil {
		t.Error("duplicate node accepted")
	}
	if _, err := New("dup-fiber", nodes, []Fiber{{ID: 0, A: 0, B: 1}, {ID: 0, A: 1, B: 0}}, nil); err == nil {
		t.Error("duplicate fiber accepted")
	}
	if _, err := New("bad-fiber-node", nodes, []Fiber{{ID: 0, A: 0, B: 7}}, nil); err == nil {
		t.Error("fiber with unknown node accepted")
	}
}

func TestLinksOnFiberConsistency(t *testing.T) {
	n, err := IBM()
	if err != nil {
		t.Fatal(err)
	}
	// Every link must appear on each of its fibers' reverse indices.
	for _, l := range n.Links {
		for _, f := range l.Fibers {
			found := false
			for _, lid := range n.LinksOnFiber(f) {
				if lid == l.ID {
					found = true
				}
			}
			if !found {
				t.Fatalf("link %d missing from fiber %d index", l.ID, f)
			}
		}
	}
}

func TestFailedLinks(t *testing.T) {
	n, err := B4()
	if err != nil {
		t.Fatal(err)
	}
	f := n.Fibers[0].ID
	failed := n.FailedLinks(FiberSetOf(f))
	if len(failed) < 2 {
		t.Fatalf("cutting fiber %d failed only %d links; direct links alone are 2", f, len(failed))
	}
	for lid := range failed {
		link := n.Link(lid)
		onFiber := false
		for _, ff := range link.Fibers {
			if ff == f {
				onFiber = true
			}
		}
		if !onFiber {
			t.Fatalf("link %d reported failed but does not ride fiber %d", lid, f)
		}
	}
	if got := n.FailedLinks(nil); len(got) != 0 {
		t.Fatalf("no cuts should fail no links, got %d", len(got))
	}
}

func TestLostCapacityMatchesFailedLinks(t *testing.T) {
	n, err := IBM()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range n.Fibers {
		var sum float64
		for lid := range n.FailedLinks(FiberSetOf(f.ID)) {
			sum += n.Link(lid).Capacity
		}
		if got := n.LostCapacity(f.ID); got != sum {
			t.Fatalf("fiber %d: LostCapacity %v != summed %v", f.ID, got, sum)
		}
	}
}

func TestRegions(t *testing.T) {
	n, err := B4()
	if err != nil {
		t.Fatal(err)
	}
	regions := n.Regions()
	if len(regions) != 3 {
		t.Fatalf("B4 regions = %v, want 3 (Fig 1b uses three regions)", regions)
	}
}

func TestLinkBetween(t *testing.T) {
	n, err := B4()
	if err != nil {
		t.Fatal(err)
	}
	// Fiber 0 joins nodes 0 and 1; both directed links must exist.
	if _, ok := n.LinkBetween(0, 1); !ok {
		t.Error("missing link 0->1")
	}
	if _, ok := n.LinkBetween(1, 0); !ok {
		t.Error("missing link 1->0")
	}
	if _, ok := n.FiberBetween(0, 1); !ok {
		t.Error("missing fiber 0-1")
	}
	if _, ok := n.FiberBetween(1, 0); !ok {
		t.Error("FiberBetween should be orientation-free")
	}
}

// Property: FailedLinks is monotone — cutting more fibers never fails fewer
// links.
func TestQuickFailedLinksMonotone(t *testing.T) {
	n, err := B4()
	if err != nil {
		t.Fatal(err)
	}
	f := func(mask uint32, extra uint8) bool {
		var cut FiberSet
		for i := 0; i < len(n.Fibers); i++ {
			if mask&(1<<uint(i)) != 0 {
				cut.Add(FiberID(i))
			}
		}
		small := n.FailedLinks(cut)
		cut.Add(FiberID(int(extra) % len(n.Fibers)))
		big := n.FailedLinks(cut)
		if len(big) < len(small) {
			return false
		}
		for l := range small {
			if !big[l] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBuiltinsValidate(t *testing.T) {
	for _, name := range []string{"B4", "IBM", "TWAN"} {
		n, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Validate(); err != nil {
			t.Errorf("%s failed validation: %v", name, err)
		}
	}
}
