package topology

import (
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
