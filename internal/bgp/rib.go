package bgp

import (
	"slices"

	"chameleon/internal/topology"
)

// SessionKind distinguishes the three BGP session roles a router can have
// towards a neighbor.
type SessionKind int

const (
	// EBGP is an external BGP session.
	EBGP SessionKind = iota
	// IBGPPeer is a regular iBGP session (full-mesh style, or reflector to
	// reflector).
	IBGPPeer
	// IBGPClient marks the neighbor as this router's route-reflection
	// client; the reverse direction of the session is IBGPUp at the client.
	IBGPClient
	// IBGPUp marks the neighbor as this router's route reflector.
	IBGPUp
)

func (k SessionKind) String() string {
	switch k {
	case EBGP:
		return "eBGP"
	case IBGPPeer:
		return "iBGP-peer"
	case IBGPClient:
		return "iBGP-client"
	case IBGPUp:
		return "iBGP-up"
	}
	return "unknown"
}

// AdjIn is the per-neighbor inbound RIB: the most recent route announced by
// each neighbor for each prefix. Storage is one RIB table per neighbor plus
// an ordered prefix-union index, so walks never re-sort and the total entry
// count is maintained incrementally.
type AdjIn struct {
	attrs  *AttrTable
	routes map[topology.NodeID]*RIB
	// nbrs lists every neighbor with a table, sorted, so candidate walks
	// are deterministic and allocation-free.
	nbrs []topology.NodeID
	// index counts how many neighbors currently announce each prefix, so
	// the prefix union walks in order without being re-derived.
	index PrefixMap[int32]
	size  int
}

// NewAdjIn returns an empty Adj-RIB-In whose tables intern into attrs.
func NewAdjIn(attrs *AttrTable) *AdjIn {
	return &AdjIn{attrs: attrs, routes: make(map[topology.NodeID]*RIB)}
}

func (a *AdjIn) indexInc(p Prefix) {
	n, _ := a.index.Get(p)
	a.index.Set(p, n+1)
}

func (a *AdjIn) indexDec(p Prefix) {
	if n, ok := a.index.Get(p); ok {
		if n <= 1 {
			a.index.Delete(p)
		} else {
			a.index.Set(p, n-1)
		}
	}
}

// Set records the route announced by neighbor for route.Prefix, reporting
// whether the (neighbor, prefix) entry is new.
func (a *AdjIn) Set(neighbor topology.NodeID, route Route) (added bool) {
	return a.SetHandle(neighbor, route.Prefix, a.attrs.Intern(&route))
}

// SetHandle is Set of the route whose attributes the AdjIn's AttrTable holds
// under h: a delivered message stores the handle its sender interned.
func (a *AdjIn) SetHandle(neighbor topology.NodeID, prefix Prefix, h uint32) (added bool) {
	t := a.routes[neighbor]
	if t == nil {
		t = NewRIBOn(a.attrs)
		a.routes[neighbor] = t
		i, _ := slices.BinarySearch(a.nbrs, neighbor)
		a.nbrs = slices.Insert(a.nbrs, i, neighbor)
	}
	added = t.SetHandle(prefix, h)
	if added {
		a.indexInc(prefix)
		a.size++
	}
	return added
}

// Withdraw removes the route for prefix announced by neighbor, reporting
// whether one was present.
func (a *AdjIn) Withdraw(neighbor topology.NodeID, prefix Prefix) bool {
	t := a.routes[neighbor]
	if t == nil || !t.Delete(prefix) {
		return false
	}
	a.indexDec(prefix)
	a.size--
	return true
}

// Get returns the route for prefix announced by neighbor, if any.
func (a *AdjIn) Get(neighbor topology.NodeID, prefix Prefix) (Route, bool) {
	t := a.routes[neighbor]
	if t == nil {
		return Route{}, false
	}
	return t.Get(prefix)
}

// DropNeighborRange removes all state from the given neighbor (session
// teardown) and calls fn for each prefix that lost a route, in ascending
// order, until fn returns false. The neighbor's state is fully gone before
// the first callback, so fn observes the post-teardown table.
func (a *AdjIn) DropNeighborRange(neighbor topology.NodeID, fn func(Prefix) bool) {
	t := a.routes[neighbor]
	if t == nil {
		return
	}
	delete(a.routes, neighbor)
	if i, ok := slices.BinarySearch(a.nbrs, neighbor); ok {
		a.nbrs = slices.Delete(a.nbrs, i, i+1)
	}
	a.size -= t.Len()
	t.RangePrefixes(func(p Prefix) bool {
		a.indexDec(p)
		return true
	})
	if fn != nil {
		t.RangePrefixes(fn)
	}
}

// RangeCandidates calls fn with every (neighbor, route) pair known for
// prefix, in ascending neighbor order, until fn returns false.
// Allocation-free.
func (a *AdjIn) RangeCandidates(prefix Prefix, fn func(topology.NodeID, Route) bool) {
	a.RangeHandles(prefix, func(n topology.NodeID, h uint32) bool { return fn(n, a.attrs.route(h, prefix)) })
}

// RangeHandles is RangeCandidates yielding the attribute handle of each
// route instead of the route.
func (a *AdjIn) RangeHandles(prefix Prefix, fn func(topology.NodeID, uint32) bool) {
	for _, n := range a.nbrs {
		if h, ok := a.routes[n].Handle(prefix); ok {
			if !fn(n, h) {
				return
			}
		}
	}
}

// NeighborRoute pairs a route with the neighbor that announced it.
type NeighborRoute struct {
	Neighbor topology.NodeID
	Route    Route
}

// NeighborCandidates returns all (neighbor, route) pairs known for prefix,
// sorted by neighbor ID for determinism.
func (a *AdjIn) NeighborCandidates(prefix Prefix) []NeighborRoute {
	var out []NeighborRoute
	a.RangeCandidates(prefix, func(n topology.NodeID, r Route) bool {
		out = append(out, NeighborRoute{Neighbor: n, Route: r})
		return true
	})
	return out
}

// RangePrefixes calls fn for every prefix with at least one candidate
// route, in ascending order, until fn returns false. Allocation-free.
func (a *AdjIn) RangePrefixes(fn func(Prefix) bool) {
	a.index.Range(func(p Prefix, _ int32) bool { return fn(p) })
}

// Neighbors returns the neighbors with Adj-RIB-In state, sorted. The
// returned slice is the AdjIn's own and must not be mutated.
func (a *AdjIn) Neighbors() []topology.NodeID { return a.nbrs }

// Size returns the total number of stored routes across all neighbors and
// prefixes in O(1); this is the routing-table-size metric of §7.3.
func (a *AdjIn) Size() int { return a.size }

// CloneOn returns an independent copy interning into attrs, which must be
// a's attribute table or a fork of it. Every per-neighbor table and the
// prefix index share unchanged subtrees with the original.
func (a *AdjIn) CloneOn(attrs *AttrTable) *AdjIn {
	c := &AdjIn{
		attrs:  attrs,
		routes: make(map[topology.NodeID]*RIB, len(a.routes)),
		nbrs:   slices.Clone(a.nbrs),
		index:  a.index.Clone(),
		size:   a.size,
	}
	for n, t := range a.routes {
		c.routes[n] = t.CloneOn(attrs)
	}
	return c
}

// LocRIB is the per-prefix best-route table of one router: a RIB whose
// entries are its selections.
type LocRIB struct {
	*RIB
}

// NewLocRIB returns an empty Loc-RIB interning into attrs.
func NewLocRIB(attrs *AttrTable) *LocRIB { return &LocRIB{NewRIBOn(attrs)} }

// Clear removes the selection for prefix.
func (l *LocRIB) Clear(prefix Prefix) { l.Delete(prefix) }

// Size returns the number of selected routes.
func (l *LocRIB) Size() int { return l.Len() }

// CloneOn returns an independent copy sharing unchanged subtrees, interning
// into attrs as RIB.CloneOn does.
func (l *LocRIB) CloneOn(attrs *AttrTable) *LocRIB { return &LocRIB{l.RIB.CloneOn(attrs)} }
