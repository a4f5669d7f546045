package bgp

import (
	"slices"

	"chameleon/internal/topology"
)

// SessionKind distinguishes the three BGP session roles a router can have
// towards a neighbor. A byte, so that a simulator peer entry stays 48 bytes.
type SessionKind uint8

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
// each neighbor for each prefix. Storage is one slice of per-neighbor
// tables, sorted by neighbor, plus an ordered prefix-union index, so walks
// never re-sort, a clone copies one slice, and the total entry count is
// maintained incrementally.
type AdjIn struct {
	attrs *AttrTable
	// nbrs holds a table for every neighbor that announced a route and has
	// not been dropped since, sorted by neighbor, so candidate walks are
	// deterministic and allocation-free.
	nbrs []adjInNeighbor
	// index counts how many neighbors currently announce each prefix, so
	// the prefix union walks in order without being re-derived.
	index PrefixMap[int32]
	size  int
}

// adjInNeighbor is one neighbor's table, held by value.
type adjInNeighbor struct {
	id  topology.NodeID
	rib RIB
}

// NewAdjIn returns an empty Adj-RIB-In whose tables intern into attrs.
func NewAdjIn(attrs *AttrTable) *AdjIn { return &AdjIn{attrs: attrs} }

// find returns where neighbor's table is, or would go, and whether it is
// there; a hand-written search, as the simulator's peer table has.
func (a *AdjIn) find(neighbor topology.NodeID) (int, bool) {
	i, j := 0, len(a.nbrs)
	for i < j {
		if h := int(uint(i+j) >> 1); a.nbrs[h].id < neighbor {
			i = h + 1
		} else {
			j = h
		}
	}
	return i, i < len(a.nbrs) && a.nbrs[i].id == neighbor
}

// table returns neighbor's table, or nil. The pointer is into the slice: it
// is valid until the next neighbor is added or dropped.
func (a *AdjIn) table(neighbor topology.NodeID) *RIB {
	if i, ok := a.find(neighbor); ok {
		return &a.nbrs[i].rib
	}
	return nil
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
	i, ok := a.find(neighbor)
	if !ok {
		a.nbrs = slices.Insert(a.nbrs, i, adjInNeighbor{id: neighbor, rib: *NewRIBOn(a.attrs)})
	}
	added = a.nbrs[i].rib.SetHandle(prefix, h)
	if added {
		a.indexInc(prefix)
		a.size++
	}
	return added
}

// Withdraw removes the route for prefix announced by neighbor, reporting
// whether one was present.
func (a *AdjIn) Withdraw(neighbor topology.NodeID, prefix Prefix) bool {
	t := a.table(neighbor)
	if t == nil || !t.Delete(prefix) {
		return false
	}
	a.indexDec(prefix)
	a.size--
	return true
}

// Get returns the route for prefix announced by neighbor, if any.
func (a *AdjIn) Get(neighbor topology.NodeID, prefix Prefix) (Route, bool) {
	t := a.table(neighbor)
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
	i, ok := a.find(neighbor)
	if !ok {
		return
	}
	t := a.nbrs[i].rib
	a.nbrs = slices.Delete(a.nbrs, i, i+1)
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
	for i := range a.nbrs {
		if h, ok := a.nbrs[i].rib.Handle(prefix); ok {
			if !fn(a.nbrs[i].id, h) {
				return
			}
		}
	}
}

// RangePrefixes calls fn for every prefix with at least one candidate
// route, in ascending order, until fn returns false. Allocation-free.
func (a *AdjIn) RangePrefixes(fn func(Prefix) bool) {
	a.index.Range(func(p Prefix, _ int32) bool { return fn(p) })
}

// Size returns the total number of stored routes across all neighbors and
// prefixes in O(1); this is the routing-table-size metric of §7.3.
func (a *AdjIn) Size() int { return a.size }

// CloneOn returns an independent copy interning into attrs, which must be
// a's attribute table or a fork of it. Every per-neighbor table and the
// prefix index share unchanged subtrees with the original. The copy has
// room for one more neighbor, so a what-if run whose reconfiguration opens
// a session does not copy the slice again.
func (a *AdjIn) CloneOn(attrs *AttrTable) *AdjIn {
	c := &AdjIn{
		attrs: attrs,
		nbrs:  append(make([]adjInNeighbor, 0, len(a.nbrs)+1), a.nbrs...),
		index: a.index.Clone(),
		size:  a.size,
	}
	for i := range c.nbrs {
		c.nbrs[i].rib = *a.nbrs[i].rib.CloneOn(attrs)
	}
	return c
}
