package topology

import (
	"slices"
	"testing"
)

// fiberModel is the map definition of a fiber set the bitset must match.
type fiberModel map[FiberID]bool

// buildBoth decodes data into fiber IDs in [0, 200] and adds them to s and
// to a model; s may arrive holding anything (it is truncated first).
func buildBoth(s FiberSet, data []byte) (FiberSet, fiberModel) {
	s = s[:0]
	m := fiberModel{}
	for _, b := range data {
		f := FiberID(int(b) % 201)
		s.Add(f)
		m[f] = true
	}
	return s, m
}

// checkAgainst compares s with model m: membership over the whole ID
// range (and past it), and Each's order.
func checkAgainst(t *testing.T, s FiberSet, m fiberModel) {
	t.Helper()
	for f := FiberID(-1); f <= 300; f++ {
		if s.Has(f) != m[f] {
			t.Fatalf("Has(%d) = %v, model %v", f, s.Has(f), m[f])
		}
	}
	var got []FiberID
	s.Each(func(f FiberID) { got = append(got, f) })
	want := make([]FiberID, 0, len(m))
	for f := range m {
		want = append(want, f)
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("Each visited %v, model holds %v", got, want)
	}
}

// FuzzFiberSet checks Has, Intersects, Add and Each against the map model
// on two sets of (usually) unequal word length, including a set rebuilt in
// a buffer that held a larger one.
func FuzzFiberSet(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0, 63, 64}, []byte{64})
	f.Add([]byte{200, 1}, []byte{2, 3, 127})
	f.Add([]byte{5}, []byte{199, 130, 5})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		sa, ma := buildBoth(nil, a)
		sb, mb := buildBoth(nil, b)
		checkAgainst(t, sa, ma)
		checkAgainst(t, sb, mb)
		want := false
		for f := range ma {
			want = want || mb[f]
		}
		if sa.Intersects(sb) != want || sb.Intersects(sa) != want {
			t.Fatalf("Intersects = %v/%v, model %v", sa.Intersects(sb), sb.Intersects(sa), want)
		}
		// Rebuilding b in a's storage leaves nothing of a behind.
		sr, mr := buildBoth(sa, b)
		checkAgainst(t, sr, mr)
	})
}

func TestFiberSetZeroValue(t *testing.T) {
	var s FiberSet
	if s.Has(0) || s.Intersects(FiberSetOf(0, 64, 199)) || FiberSetOf(3).Intersects(s) {
		t.Fatal("the empty set holds or meets a fiber")
	}
	s.Each(func(f FiberID) { t.Fatalf("Each visited %d in the empty set", f) })
	if got := FiberSetOf(130); len(got) != 3 || !got.Has(130) || got.Has(2) {
		t.Fatalf("FiberSetOf(130) = %v", got)
	}
}
