// Package igp implements the intra-domain routing substrate (an OSPF-like
// link-state protocol, cf. RFC 2328) that BGP relies on: shortest-path
// computation over the weighted topology, next-hop resolution towards BGP
// egress routers, and link failure with reconvergence.
//
// The paper's testbed runs OSPF below iBGP (§6); forwarding towards a BGP
// egress follows the IGP shortest path, and the BGP decision process breaks
// ties on IGP cost. Both uses are served by this package.
package igp

import (
	"maps"
	"math"

	"chameleon/internal/topology"
)

// Infinity is the distance reported between disconnected nodes.
const Infinity = math.MaxFloat64

// SPF holds all-pairs shortest-path state for a topology. It supports
// failing and restoring links, after which Recompute must be called.
// SPF is not safe for concurrent mutation; concurrent reads are fine.
type SPF struct {
	g      *topology.Graph
	failed map[int]bool // indices into g.Links()
	dist   [][]float64
	next   [][]topology.NodeID // next[a][b]: first hop on the best a->b path
}

// Compute builds the all-pairs shortest-path state for g.
func Compute(g *topology.Graph) *SPF {
	s := &SPF{g: g, failed: make(map[int]bool)}
	s.Recompute()
	return s
}

// Clone returns an independent SPF over the same topology, failed links
// included. The distance tables are shared until either side calls
// Recompute, which replaces them wholesale and never writes in place.
func (s *SPF) Clone() *SPF {
	return &SPF{g: s.g, failed: maps.Clone(s.failed), dist: s.dist, next: s.next}
}

// Graph returns the underlying topology.
func (s *SPF) Graph() *topology.Graph { return s.g }

// FailLink marks the (first) link between a and b as failed. It returns
// false if no such link exists. Recompute must be called afterwards.
func (s *SPF) FailLink(a, b topology.NodeID) bool {
	return s.setLink(a, b, true)
}

// RestoreLink clears the failure of the (first) link between a and b.
func (s *SPF) RestoreLink(a, b topology.NodeID) bool {
	return s.setLink(a, b, false)
}

func (s *SPF) setLink(a, b topology.NodeID, down bool) bool {
	for _, li := range s.g.IncidentLinks(a) {
		l := s.g.Links()[li]
		if (l.A == a && l.B == b) || (l.A == b && l.B == a) {
			if down {
				s.failed[li] = true
			} else {
				delete(s.failed, li)
			}
			return true
		}
	}
	return false
}

// FailedLinks returns the number of currently failed links.
func (s *SPF) FailedLinks() int { return len(s.failed) }

// Recompute re-runs Dijkstra from every node, honoring failed links.
// Ties between equal-cost paths are broken deterministically towards the
// lowest next-hop ID, mirroring a router's deterministic ECMP-free FIB.
func (s *SPF) Recompute() {
	n := s.g.NumNodes()
	s.dist = make([][]float64, n)
	s.next = make([][]topology.NodeID, n)
	for src := 0; src < n; src++ {
		s.dist[src], s.next[src] = s.dijkstra(topology.NodeID(src))
	}
}

type pqItem struct {
	node topology.NodeID
	dist float64
}

func (a pqItem) before(b pqItem) bool {
	return a.dist < b.dist || a.dist == b.dist && a.node < b.node
}

// pq is a binary min-heap of pqItems under before. Items with equal keys
// are equal, so the order items pop in does not depend on the heap's shape.
type pq []pqItem

func (q *pq) push(it pqItem) {
	h := append(*q, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !it.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = it
	*q = h
}

func (q *pq) pop() pqItem {
	h := *q
	top, last := h[0], len(h)-1
	it := h[last]
	h = h[:last]
	if last > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= last {
				break
			}
			if r := c + 1; r < last && h[r].before(h[c]) {
				c = r
			}
			if !h[c].before(it) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = it
	}
	*q = h
	return top
}

func (s *SPF) dijkstra(src topology.NodeID) ([]float64, []topology.NodeID) {
	n := s.g.NumNodes()
	dist := make([]float64, n)
	first := make([]topology.NodeID, n) // first hop from src
	done := make([]bool, n)
	for i := range dist {
		dist[i] = Infinity
		first[i] = topology.None
	}
	dist[src] = 0
	q := pq{{src, 0}}
	for len(q) > 0 {
		it := q.pop()
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		for _, li := range s.g.IncidentLinks(u) {
			if s.failed[li] {
				continue
			}
			l := s.g.Links()[li]
			v := l.B
			if v == u {
				v = l.A
			}
			nd := dist[u] + l.Weight
			hop := first[u]
			if u == src {
				hop = v
			}
			better := nd < dist[v] ||
				(nd == dist[v] && first[v] != topology.None && hop < first[v])
			if better {
				dist[v] = nd
				first[v] = hop
				q.push(pqItem{v, nd})
			}
		}
	}
	return dist, first
}

// Dist returns the shortest-path distance from a to b (Infinity if
// disconnected).
func (s *SPF) Dist(a, b topology.NodeID) float64 { return s.dist[a][b] }

// NextHop returns the first hop on the shortest path from a to b, or
// topology.None if b is unreachable from a. NextHop(a, a) returns a.
func (s *SPF) NextHop(a, b topology.NodeID) topology.NodeID {
	if a == b {
		return a
	}
	return s.next[a][b]
}

// Path returns the full node sequence of the shortest path from a to b,
// inclusive of both endpoints, or nil if unreachable.
func (s *SPF) Path(a, b topology.NodeID) []topology.NodeID {
	if s.dist[a][b] == Infinity {
		return nil
	}
	path := []topology.NodeID{a}
	cur := a
	for cur != b {
		nxt := s.NextHop(cur, b)
		if nxt == topology.None || nxt == cur {
			return nil
		}
		path = append(path, nxt)
		cur = nxt
		if len(path) > s.g.NumNodes()+1 {
			return nil // defensive: should be impossible with consistent state
		}
	}
	return path
}
