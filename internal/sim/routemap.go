// Package sim is an event-based BGP simulator: the substrate standing in
// for the paper's ~30k-line Rust simulator and its hardware testbed. It
// models routers with full RIBs, iBGP route reflection (RFC 4456), eBGP
// peering, route maps, per-session FIFO message delivery with configurable
// delays, and timed forwarding-state traces.
package sim

import (
	"fmt"
	"slices"
	"strings"

	"chameleon/internal/bgp"
	"chameleon/internal/topology"
)

// Direction distinguishes ingress (applied to received routes) from egress
// (applied when advertising) route maps.
type Direction int

const (
	// In is the ingress direction.
	In Direction = iota
	// Out is the egress direction.
	Out
)

func (d Direction) String() string {
	if d == In {
		return "in"
	}
	return "out"
}

// Match selects the routes a route-map entry applies to. Nil fields match
// anything.
type Match struct {
	Prefix   *bgp.Prefix      // match a specific prefix
	Neighbor *topology.NodeID // match routes from a specific neighbor (In) / to a neighbor (Out)
	Egress   *topology.NodeID // match routes whose egress e(ρ) equals this node
}

// Matches reports whether the entry applies to the given route exchanged
// with the given neighbor.
func (m Match) Matches(neighbor topology.NodeID, r *bgp.Route) bool {
	if m.Prefix != nil && *m.Prefix != r.Prefix {
		return false
	}
	if m.Neighbor != nil && *m.Neighbor != neighbor {
		return false
	}
	if m.Egress != nil && *m.Egress != r.Egress {
		return false
	}
	return true
}

// Action is what a matching route-map entry does to a route.
type Action struct {
	Deny         bool
	SetWeight    *int
	SetLocalPref *uint32
}

// Entry is one clause of a route map; entries are evaluated in Order, and
// the first match wins (deny or permit+set). A route matched by no entry is
// permitted unchanged.
type Entry struct {
	Order  int
	Match  Match
	Action Action
}

// equal reports whether e and o are the same clause, comparing what their
// pointer fields point to.
func (e *Entry) equal(o *Entry) bool {
	return e.Order == o.Order &&
		samePointee(e.Match.Prefix, o.Match.Prefix) &&
		samePointee(e.Match.Neighbor, o.Match.Neighbor) &&
		samePointee(e.Match.Egress, o.Match.Egress) &&
		e.Action.Deny == o.Action.Deny &&
		samePointee(e.Action.SetWeight, o.Action.SetWeight) &&
		samePointee(e.Action.SetLocalPref, o.Action.SetLocalPref)
}

func samePointee[T comparable](a, b *T) bool {
	return a == b || (a != nil && b != nil && *a == *b)
}

// RouteMap is an ordered list of entries.
type RouteMap struct {
	entries []Entry
}

// Add inserts an entry keeping the map sorted by Order (stable for equal
// orders).
func (rm *RouteMap) Add(e Entry) {
	i := len(rm.entries)
	for i > 0 && rm.entries[i-1].Order > e.Order {
		i--
	}
	rm.entries = slices.Insert(rm.entries, i, e)
}

// Remove deletes all entries with the given order, reporting how many were
// removed.
func (rm *RouteMap) Remove(order int) int {
	n := len(rm.entries)
	rm.entries = slices.DeleteFunc(rm.entries, func(e Entry) bool { return e.Order == order })
	return n - len(rm.entries)
}

// removeAll deletes every entry whose order is one of orders.
func (rm *RouteMap) removeAll(orders []int) {
	rm.entries = slices.DeleteFunc(rm.entries, func(e Entry) bool { return slices.Contains(orders, e.Order) })
}

// contains reports whether an entry equal to e is in the map.
func (rm *RouteMap) contains(e *Entry) bool {
	if rm == nil {
		return false
	}
	for i := range rm.entries {
		if rm.entries[i].equal(e) {
			return true
		}
	}
	return false
}

// hasAny reports whether an entry exists at any of the orders.
func (rm *RouteMap) hasAny(orders []int) bool {
	if rm == nil {
		return false
	}
	for i := range rm.entries {
		if slices.Contains(orders, rm.entries[i].Order) {
			return true
		}
	}
	return false
}

// Len returns the number of entries.
func (rm *RouteMap) Len() int {
	if rm == nil {
		return 0
	}
	return len(rm.entries)
}

// Apply runs the route map over route r exchanged with neighbor, in place.
// permit is false if the route is denied; set reports whether a matching
// entry set an attribute, so an r that comes back with set false is the
// route that went in.
func (rm *RouteMap) Apply(neighbor topology.NodeID, r *bgp.Route) (permit, set bool) {
	if rm == nil {
		return true, false
	}
	for _, e := range rm.entries {
		if !e.Match.Matches(neighbor, r) {
			continue
		}
		if e.Action.Deny {
			return false, false
		}
		if e.Action.SetWeight != nil {
			r.Weight = *e.Action.SetWeight
			set = true
		}
		if e.Action.SetLocalPref != nil {
			r.LocalPref = *e.Action.SetLocalPref
			set = true
		}
		return true, set
	}
	return true, false
}

// String renders the route map for debugging.
func (rm *RouteMap) String() string {
	if rm == nil || len(rm.entries) == 0 {
		return "(empty)"
	}
	var b strings.Builder
	for i, e := range rm.entries {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%d:", e.Order)
		if e.Action.Deny {
			b.WriteString("deny")
		} else {
			b.WriteString("permit")
			if e.Action.SetWeight != nil {
				fmt.Fprintf(&b, " weight=%d", *e.Action.SetWeight)
			}
			if e.Action.SetLocalPref != nil {
				fmt.Fprintf(&b, " lp=%d", *e.Action.SetLocalPref)
			}
		}
	}
	return b.String()
}

// Ptr helpers for building matches and actions concisely.

// PrefixP returns a pointer to p.
func PrefixP(p bgp.Prefix) *bgp.Prefix { return &p }

// IntP returns a pointer to v.
func IntP(v int) *int { return &v }

// U32P returns a pointer to v.
func U32P(v uint32) *uint32 { return &v }
