package topology

import "math/bits"

// FiberSet is a set of fibers, one bit per FiberID: fiber f is bit f%64 of
// word f/64. It has no width cap; a set grows as fibers are added, and two
// sets of different word lengths compare as if the shorter one were
// zero-padded. The zero value (nil) is the empty set.
//
// It is the representation of every fiber set survival is tested against:
// a tunnel's fibers and a scenario's cut. A tunnel survives a cut exactly
// when the two sets do not intersect, which on a topology of up to 64
// fibers is one AND of two words.
//
// To rebuild a set in place, truncate it to length zero and Add again: Add
// writes every word it extends the set by, so nothing of the old contents
// survives.
type FiberSet []uint64

// Has reports whether f is in the set.
func (s FiberSet) Has(f FiberID) bool {
	w := int(f) >> 6
	return f >= 0 && w < len(s) && s[w]&(1<<(uint(f)&63)) != 0
}

// Intersects reports whether the two sets share a fiber.
func (s FiberSet) Intersects(o FiberSet) bool {
	n := min(len(s), len(o))
	for i := 0; i < n; i++ {
		if s[i]&o[i] != 0 {
			return true
		}
	}
	return false
}

// Add puts f (which must be non-negative) into the set.
func (s *FiberSet) Add(f FiberID) {
	w := int(f) >> 6
	for len(*s) <= w {
		*s = append(*s, 0)
	}
	(*s)[w] |= 1 << (uint(f) & 63)
}

// Each calls fn on every fiber of the set in ascending ID order.
func (s FiberSet) Each(fn func(FiberID)) {
	for i, w := range s {
		for w != 0 {
			fn(FiberID(i<<6 + bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}

// FiberSetOf returns the set of the given fibers.
func FiberSetOf(fibers ...FiberID) FiberSet {
	var s FiberSet
	for _, f := range fibers {
		s.Add(f)
	}
	return s
}
