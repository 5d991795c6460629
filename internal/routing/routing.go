// Package routing builds the tunnel layer of the TE system: shortest paths
// (Dijkstra), k-shortest paths (Yen's algorithm), fiber-disjoint paths, and
// the per-flow tunnel sets PreTE routes traffic on. Per §4.2, tunnels are
// initialized with "both k-shortest path routing and fiber-disjoint routing
// algorithms", four tunnels per flow (§6.1), ensuring at least one residual
// tunnel exists for every flow under each single-fiber failure where the
// graph allows it.
package routing

import (
	"fmt"
	"sort"

	"prete/internal/topology"
)

// Path is an ordered sequence of directed IP links from a source to a
// destination.
type Path []topology.LinkID

// Weight is a link cost table indexed by LinkID; nil means the
// fiber-length metric.
type Weight []float64

// lengthWeight costs every link by the total fiber distance its lightpath
// spans.
func lengthWeight(n *topology.Network) Weight {
	w := make(Weight, len(n.Links))
	for i, l := range n.Links {
		var km float64
		for _, f := range l.Fibers {
			km += n.Fiber(f).LengthKm
		}
		if km <= 0 {
			km = 1
		}
		w[i] = km
	}
	return w
}

// pqItem is a priority-queue entry for Dijkstra.
type pqItem struct {
	node topology.NodeID
	dist float64
}

// pq is Dijkstra's min-heap on dist. push and pop sift exactly as
// container/heap does, so equal distances pop in the same order, without
// boxing every entry in an interface.
type pq []pqItem

func (q *pq) push(it pqItem) {
	*q = append(*q, it)
	h := *q
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (q *pq) pop() pqItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n && h[j+1].dist < h[j].dist {
			j++
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h[:n]
	return h[n]
}

// label is a node's Dijkstra state; seen marks a node dist has been set
// for.
type label struct {
	dist          float64
	prev          topology.LinkID
	seen, visited bool
}

// search holds Dijkstra's arrays, reused by the searches of one KShortest
// or FiberDisjointPaths call.
type search struct {
	at []label
	q  pq
}

// shortestPath runs Dijkstra from src to dst under the weights w over links
// not in bannedLinks and not touching nodes in bannedNodes (intermediate
// hops only; src/dst are always allowed). The ban sets are indexed by
// LinkID and NodeID; nil bans nothing. It returns the path and true, or nil
// and false when dst is unreachable.
func (s *search) shortestPath(n *topology.Network, src, dst topology.NodeID, w Weight, bannedLinks, bannedNodes []bool) (Path, bool) {
	if cap(s.at) < len(n.Nodes) {
		s.at = make([]label, len(n.Nodes))
	}
	at := s.at[:len(n.Nodes)]
	clear(at)
	s.q = append(s.q[:0], pqItem{node: src, dist: 0})
	at[src].seen = true
	for len(s.q) > 0 {
		it := s.q.pop()
		if at[it.node].visited {
			continue
		}
		at[it.node].visited = true
		if it.node == dst {
			break
		}
		if it.node != src && in(bannedNodes, it.node) {
			continue
		}
		for _, lid := range n.OutLinks(it.node) {
			if in(bannedLinks, lid) {
				continue
			}
			to := n.Links[lid].Dst
			if to != dst && in(bannedNodes, to) {
				continue
			}
			nd := it.dist + w[lid]
			if l := &at[to]; !l.seen || nd < l.dist {
				l.dist, l.prev, l.seen = nd, lid, true
				s.q.push(pqItem{node: to, dist: nd})
			}
		}
	}
	if !at[dst].visited {
		return nil, false
	}
	hops := 0
	for v := dst; v != src; v = n.Links[at[v].prev].Src {
		hops++
	}
	p := make(Path, hops)
	for v := dst; v != src; v = n.Links[at[v].prev].Src {
		hops--
		p[hops] = at[v].prev
	}
	return p, true
}

// in reports whether set, indexed by ID, holds id; a nil set holds nothing.
func in[T ~int](set []bool, id T) bool { return set != nil && set[id] }

// pathCost sums the weight of a path.
func pathCost(p Path, w Weight) float64 {
	var c float64
	for _, lid := range p {
		c += w[lid]
	}
	return c
}

// KShortest returns up to k loopless shortest paths from src to dst using
// Yen's algorithm, ordered by increasing cost.
func KShortest(n *topology.Network, src, dst topology.NodeID, k int, w Weight) []Path {
	if w == nil {
		w = lengthWeight(n)
	}
	var search search
	first, ok := search.shortestPath(n, src, dst, w, nil, nil)
	if !ok {
		return nil
	}
	paths := []Path{first}
	type candidate struct {
		path Path
		cost float64
	}
	var candidates []candidate
	seen := map[string]bool{PathKey(first): true}
	// One pair of ban sets serves every spur: each spur sets its bans and
	// clears exactly those after its search.
	bannedLinks, bannedNodes := make([]bool, len(n.Links)), make([]bool, len(n.Nodes))
	var setLinks []topology.LinkID

	for len(paths) < k {
		prevPath := paths[len(paths)-1]
		// Spur from every node of the previous path.
		for i := 0; i < len(prevPath); i++ {
			spurNode := src
			if i > 0 {
				spurNode = n.Link(prevPath[i-1]).Dst
			}
			rootPath := prevPath[:i]
			setLinks = setLinks[:0]
			for _, p := range paths {
				if len(p) > i && samePrefix(p, rootPath, i) {
					bannedLinks[p[i]] = true
					setLinks = append(setLinks, p[i])
				}
			}
			at := src
			for _, lid := range rootPath {
				bannedNodes[at] = true
				at = n.Link(lid).Dst
			}
			spur, ok := search.shortestPath(n, spurNode, dst, w, bannedLinks, bannedNodes)
			for _, lid := range setLinks {
				bannedLinks[lid] = false
			}
			at = src
			for _, lid := range rootPath {
				bannedNodes[at] = false
				at = n.Link(lid).Dst
			}
			if !ok {
				continue
			}
			total := append(append(make(Path, 0, len(rootPath)+len(spur)), rootPath...), spur...)
			key := PathKey(total)
			if seen[key] {
				continue
			}
			seen[key] = true
			candidates = append(candidates, candidate{path: total, cost: pathCost(total, w)})
		}
		if len(candidates) == 0 {
			break
		}
		sort.SliceStable(candidates, func(a, b int) bool { return candidates[a].cost < candidates[b].cost })
		paths = append(paths, candidates[0].path)
		candidates = candidates[1:]
	}
	return paths
}

func samePrefix(p Path, root Path, i int) bool {
	if len(p) < i {
		return false
	}
	for j := 0; j < i; j++ {
		if p[j] != root[j] {
			return false
		}
	}
	return true
}

// AppendKey appends the canonical map key of an ID list (link IDs of a
// path, tunnel IDs of a surviving set; order matters) to b. It is the one
// identity paths are deduplicated by and failure-equivalence classes are
// merged by. An ID contributes its low 16 bits.
func AppendKey[T ~int](b []byte, ids []T) []byte {
	for _, id := range ids {
		b = append(b, byte(id), byte(id>>8), ',')
	}
	return b
}

// PathKey returns a path's AppendKey as a string.
func PathKey(p Path) string { return string(AppendKey(nil, p)) }

// FiberDisjointPaths returns up to k paths from src to dst that pairwise
// share no fiber: after each path is found, every link riding any of its
// fibers is banned.
func FiberDisjointPaths(n *topology.Network, src, dst topology.NodeID, k int, w Weight) []Path {
	if w == nil {
		w = lengthWeight(n)
	}
	banned := make([]bool, len(n.Links))
	var search search
	var out []Path
	for len(out) < k {
		p, ok := search.shortestPath(n, src, dst, w, banned, nil)
		if !ok {
			break
		}
		out = append(out, p)
		for _, lid := range p {
			for _, f := range n.Link(lid).Fibers {
				for _, other := range n.LinksOnFiber(f) {
					banned[other] = true
				}
			}
		}
	}
	return out
}

// PathFibers returns the set of fibers a path's lightpaths traverse.
func PathFibers(n *topology.Network, p Path) topology.FiberSet {
	var fibers topology.FiberSet
	for _, lid := range p {
		for _, f := range n.Link(lid).Fibers {
			fibers.Add(f)
		}
	}
	return fibers
}

// ValidatePath checks that p is a connected src->dst walk.
func ValidatePath(n *topology.Network, src, dst topology.NodeID, p Path) error {
	if len(p) == 0 {
		return fmt.Errorf("routing: empty path")
	}
	at := src
	for i, lid := range p {
		link := n.Link(lid)
		if link.Src != at {
			return fmt.Errorf("routing: hop %d starts at %d, expected %d", i, link.Src, at)
		}
		at = link.Dst
	}
	if at != dst {
		return fmt.Errorf("routing: path ends at %d, want %d", at, dst)
	}
	return nil
}
