package sim

import (
	"maps"
	"slices"

	"chameleon/internal/bgp"
	"chameleon/internal/topology"
)

// router is the per-node BGP state.
type router struct {
	id       topology.NodeID
	external bool

	// sessions maps each BGP neighbor to this router's role towards it;
	// nbrs mirrors its key set sorted, so the hot per-prefix propagation
	// loop never re-sorts.
	sessions map[topology.NodeID]bgp.SessionKind
	nbrs     []topology.NodeID

	// Route maps, per direction and neighbor.
	maps map[Direction]map[topology.NodeID]*RouteMap

	// attrs is the network's attribute table, which every table below
	// interns into.
	attrs  *bgp.AttrTable
	adjIn  *bgp.AdjIn  // raw routes as received, before ingress policy
	locRib *bgp.LocRIB // selected route per prefix, after ingress policy

	// adjOut records the last route sent to each neighbor per prefix, so
	// exports can be diffed and withdrawals generated.
	adjOut map[topology.NodeID]*bgp.RIB

	// originated holds the announcements of an external network, on the
	// copy-on-write trie so a clone shares them; empty (and unallocated) at
	// internal routers.
	originated bgp.PrefixMap[Announcement]

	// aggRules are the router's §8 border-aggregation rules.
	aggRules []AggregateRule
}

// Announcement describes a route an external network originates.
type Announcement struct {
	Prefix    bgp.Prefix
	ASPathLen int
	MED       uint32
}

func newRouter(id topology.NodeID, external bool, attrs *bgp.AttrTable) *router {
	return &router{
		id:       id,
		external: external,
		attrs:    attrs,
		sessions: make(map[topology.NodeID]bgp.SessionKind),
		maps: map[Direction]map[topology.NodeID]*RouteMap{
			In:  make(map[topology.NodeID]*RouteMap),
			Out: make(map[topology.NodeID]*RouteMap),
		},
		adjIn:  bgp.NewAdjIn(attrs),
		locRib: bgp.NewLocRIB(attrs),
		adjOut: make(map[topology.NodeID]*bgp.RIB),
	}
}

// clone returns an independent copy of r whose tables intern into attrs, a
// fork of r's attribute table. The route tables and originated
// announcements are copy-on-write shares; the configuration — sessions, the
// sorted neighbor cache, route maps (whose entries are already in order),
// aggregation rules — is copied wholesale.
func (r *router) clone(attrs *bgp.AttrTable) *router {
	c := &router{
		id:         r.id,
		external:   r.external,
		attrs:      attrs,
		sessions:   maps.Clone(r.sessions),
		nbrs:       slices.Clone(r.nbrs),
		maps:       make(map[Direction]map[topology.NodeID]*RouteMap, len(r.maps)),
		adjIn:      r.adjIn.CloneOn(attrs),
		locRib:     r.locRib.CloneOn(attrs),
		adjOut:     make(map[topology.NodeID]*bgp.RIB, len(r.adjOut)),
		originated: r.originated.Clone(),
		aggRules:   slices.Clone(r.aggRules),
	}
	for dir, byNb := range r.maps {
		cm := make(map[topology.NodeID]*RouteMap, len(byNb))
		for nb, rm := range byNb {
			cm[nb] = &RouteMap{entries: slices.Clone(rm.entries)}
		}
		c.maps[dir] = cm
	}
	for nb, t := range r.adjOut {
		c.adjOut[nb] = t.CloneOn(attrs)
	}
	return c
}

// setSession records (or re-types) the session towards peer, keeping the
// sorted neighbor cache in sync.
func (r *router) setSession(peer topology.NodeID, kind bgp.SessionKind) {
	if _, ok := r.sessions[peer]; !ok {
		i, _ := slices.BinarySearch(r.nbrs, peer)
		r.nbrs = slices.Insert(r.nbrs, i, peer)
	}
	r.sessions[peer] = kind
}

// dropSession removes the session towards peer from the map and the cache.
func (r *router) dropSession(peer topology.NodeID) {
	if _, ok := r.sessions[peer]; !ok {
		return
	}
	delete(r.sessions, peer)
	if i, ok := slices.BinarySearch(r.nbrs, peer); ok {
		r.nbrs = slices.Delete(r.nbrs, i, i+1)
	}
}

// adjOutFor returns the Adj-RIB-Out table towards peer, creating it on
// first use.
func (r *router) adjOutFor(peer topology.NodeID) *bgp.RIB {
	t := r.adjOut[peer]
	if t == nil {
		t = bgp.NewRIBOn(r.attrs)
		r.adjOut[peer] = t
	}
	return t
}

func (r *router) routeMap(dir Direction, neighbor topology.NodeID) *RouteMap {
	return r.maps[dir][neighbor]
}

func (r *router) ensureRouteMap(dir Direction, neighbor topology.NodeID) *RouteMap {
	rm := r.maps[dir][neighbor]
	if rm == nil {
		rm = &RouteMap{}
		r.maps[dir][neighbor] = rm
	}
	return rm
}

// neighbors returns the router's BGP neighbors sorted by ID. The slice is
// the router's cache: callers must not mutate or retain it across session
// changes.
func (r *router) neighbors() []topology.NodeID { return r.nbrs }

// rangeIngress calls fn with every Adj-RIB-In route for prefix that ingress
// policy admits, policy applied, in ascending neighbor order, until fn
// returns false. held is 1 + the handle that stores the route as fn sees
// it, or 0 when policy set an attribute. Allocation-free; the only place
// ingress policy meets the Adj-RIB-In.
func (r *router) rangeIngress(prefix bgp.Prefix, fn func(route bgp.Route, held uint32) bool) {
	r.adjIn.RangeHandles(prefix, func(nb topology.NodeID, h uint32) bool {
		route := *r.attrs.At(h)
		route.Prefix = prefix
		permit, set := r.routeMap(In, nb).Apply(nb, &route)
		if !permit {
			return true
		}
		held := h + 1
		if set {
			held = 0
		}
		return fn(route, held)
	})
}

// acceptable implements RFC 4456 / path loop checks on a received route.
func (r *router) acceptable(route *bgp.Route) bool {
	if route.OriginatorID == r.id {
		return false
	}
	if slices.Contains(route.ClusterList, r.id) {
		return false
	}
	// Path loop: the route's propagation path must not already contain us
	// before the final element (which is us: the sender appended it).
	return !slices.Contains(route.Path[:max(0, len(route.Path)-1)], r.id)
}

// exportTo builds in out the route this router would advertise to neighbor
// for prefix, applying the iBGP/eBGP/route-reflection export rules and the
// egress route map, and reports false if nothing may be advertised. The
// selected route is read in place; the extended path and cluster list go
// into b, and an unchanged cluster list stays the selected record's, which
// nothing writes to.
func (r *router) exportTo(neighbor topology.NodeID, prefix bgp.Prefix, out *bgp.Route, b *routeBufs) bool {
	h, have := r.locRib.Handle(prefix)
	if !have {
		return false
	}
	toKind, connected := r.sessions[neighbor]
	if !connected {
		return false
	}
	// Summary-only aggregation suppresses the contributors (§8).
	if r.suppressed(prefix) {
		return false
	}
	best := r.attrs.At(h)
	// Never advertise a route back onto the session it was learned from.
	learnedFrom := best.Pre()
	if best.FromEBGP {
		learnedFrom = best.External
	}
	if neighbor == learnedFrom {
		return false
	}
	// Never advertise to a neighbor already on the propagation path.
	if slices.Contains(best.Path[:max(0, len(best.Path)-1)], neighbor) {
		return false
	}

	if toKind != bgp.EBGP {
		// iBGP export rules.
		switch {
		case best.FromEBGP:
			// eBGP-learned: advertise to every iBGP neighbor.
		default:
			fromKind := r.sessions[learnedFrom]
			switch fromKind {
			case bgp.IBGPClient:
				// Learned from a client: reflect to all iBGP neighbors.
			case bgp.IBGPPeer, bgp.IBGPUp:
				// Learned from a non-client: send to clients only.
				if toKind != bgp.IBGPClient {
					return false
				}
			case bgp.EBGP:
				// Session kind changed under us; treat as eBGP-learned.
			}
		}
	}

	*out = *best
	out.Prefix = prefix
	b.path = append(append(b.path[:0], best.Path...), neighbor)
	out.Path = b.path
	// Non-transitive attributes are reset.
	out.Weight = bgp.DefaultWeight
	out.FromEBGP = false
	if toKind == bgp.EBGP {
		// LOCAL_PREF is not propagated over eBGP; AS path grows.
		out.LocalPref = bgp.DefaultLocalPref
		out.ASPathLen++
	} else if !best.FromEBGP {
		// Reflection: record originator and extend the cluster list.
		if out.OriginatorID == topology.None {
			out.OriginatorID = best.Egress
		}
		b.clusters = append(append(b.clusters[:0], best.ClusterList...), r.id)
		out.ClusterList = b.clusters
	}
	permit, _ := r.routeMap(Out, neighbor).Apply(neighbor, out)
	return permit
}
