// Package bgp defines BGP routes, the best-path decision process, and the
// RIB structures (Adj-RIB-In, Loc-RIB) used by the simulator. Routes carry
// both standard BGP attributes and their propagation path, following the
// paper's §3 model where a route ρ = [d, n1, …, ni, n] is identified by the
// sequence of routers it traversed inside the network.
package bgp

import (
	"fmt"
	"slices"
	"strings"

	"chameleon/internal/igp"
	"chameleon/internal/topology"
)

// Prefix identifies a destination prefix (or a prefix equivalence class,
// §3: one destination can represent a whole class of prefixes for which the
// network computes identical routing and forwarding state).
type Prefix int

// Route is a BGP route for one prefix as known at one router.
type Route struct {
	Prefix Prefix

	// Egress is e(ρ): the internal router that first received the route
	// from the external world and that traffic ultimately exits through.
	Egress topology.NodeID

	// External is the eBGP neighbor that announced the route to Egress.
	External topology.NodeID

	// Path is the internal propagation path [n1, …, ni, n]: Path[0] is the
	// egress, Path[len-1] is the router holding this route. The external
	// destination d is implicit.
	Path []topology.NodeID

	// Standard attributes, in decision-process order of relevance.
	Weight    int    // Cisco-style local weight; never propagated
	LocalPref uint32 // propagated over iBGP only
	ASPathLen int
	MED       uint32
	FromEBGP  bool // learned over an eBGP session

	// OriginatorID and ClusterList implement RFC 4456 loop prevention for
	// route reflection.
	OriginatorID topology.NodeID
	ClusterList  []topology.NodeID
}

// DefaultLocalPref is the local preference assigned to routes that no route
// map touches.
const DefaultLocalPref uint32 = 100

// DefaultWeight is the weight assigned to routes that no route map touches.
const DefaultWeight = 0

// At returns the router currently holding this route (the last path element).
func (r Route) At() topology.NodeID {
	if len(r.Path) == 0 {
		return topology.None
	}
	return r.Path[len(r.Path)-1]
}

// Pre returns pre(ρ): the neighbor that advertised the route to At(), or
// topology.None if the route was learned over eBGP directly at the egress.
func (r Route) Pre() topology.NodeID {
	if len(r.Path) < 2 {
		return topology.None
	}
	return r.Path[len(r.Path)-2]
}

// SameAnnouncement reports whether two routes stem from the same external
// announcement (same prefix, same egress, same external neighbor),
// regardless of the propagation path. This is the equivalence the paper
// uses for "equivalent routes" from redundant route reflectors.
func (r Route) SameAnnouncement(o Route) bool {
	return r.Prefix == o.Prefix && r.Egress == o.Egress && r.External == o.External
}

// PathEqual reports whether two routes have identical propagation paths.
func (r Route) PathEqual(o Route) bool {
	return r.SameAnnouncement(o) && slices.Equal(r.Path, o.Path)
}

// String renders ρ as [d, n1, …, n] with attributes, for debugging.
func (r Route) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "p%d:[d", int(r.Prefix))
	for _, n := range r.Path {
		fmt.Fprintf(&b, ",%d", int(n))
	}
	fmt.Fprintf(&b, "] lp=%d w=%d aspl=%d", r.LocalPref, r.Weight, r.ASPathLen)
	return b.String()
}

// Comparator ranks routes according to the BGP decision process. IGP
// distances and the evaluating router are needed for the IGP-cost step.
type Comparator struct {
	SPF  *igp.SPF
	Node topology.NodeID
}

// Better reports whether route a is strictly preferred over b at the
// comparator's node, following the standard (Cisco-ordered) decision
// process:
//  1. highest Weight
//  2. highest LocalPref
//  3. shortest AS path
//  4. lowest MED
//  5. eBGP-learned over iBGP-learned
//  6. lowest IGP cost to the egress
//  7. lowest egress router ID
//  8. shortest cluster list (RFC 4456 §9; prevents the classic two-reflector
//     oscillation where each reflector prefers the other's reflected copy)
//  9. lowest advertising neighbor ID (deterministic final tie-break)
func (c Comparator) Better(a, b Route) bool {
	if a.Weight != b.Weight {
		return a.Weight > b.Weight
	}
	if a.LocalPref != b.LocalPref {
		return a.LocalPref > b.LocalPref
	}
	if a.ASPathLen != b.ASPathLen {
		return a.ASPathLen < b.ASPathLen
	}
	if a.MED != b.MED {
		return a.MED < b.MED
	}
	if a.FromEBGP != b.FromEBGP {
		return a.FromEBGP
	}
	da, db := c.SPF.Dist(c.Node, a.Egress), c.SPF.Dist(c.Node, b.Egress)
	if da != db {
		return da < db
	}
	if a.Egress != b.Egress {
		return a.Egress < b.Egress
	}
	if len(a.ClusterList) != len(b.ClusterList) {
		return len(a.ClusterList) < len(b.ClusterList)
	}
	return neighborKey(a) < neighborKey(b)
}

func neighborKey(r Route) topology.NodeID {
	if p := r.Pre(); p != topology.None {
		return p
	}
	return r.External
}

// Best returns the index of the best route in rs, or -1 if rs is empty.
func (c Comparator) Best(rs []Route) int {
	best := -1
	for i, r := range rs {
		if best == -1 || c.Better(r, rs[best]) {
			best = i
		}
	}
	return best
}
