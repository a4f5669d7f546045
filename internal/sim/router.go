package sim

import (
	"slices"

	"chameleon/internal/bgp"
	"chameleon/internal/topology"
)

// router is the per-node BGP state.
type router struct {
	id       topology.NodeID
	external bool

	// peers is the peer table, sorted by neighbor ID: one entry per
	// neighbor the router has had a session or a route map towards.
	peers []peer

	// attrs is the network's attribute table, which every table below
	// interns into.
	attrs  *bgp.AttrTable
	adjIn  *bgp.AdjIn // raw routes as received, before ingress policy
	locRib *bgp.RIB   // selected route per prefix, after ingress policy

	// originated holds the announcements of an external network, on the
	// copy-on-write trie so a clone shares them; empty (and unallocated) at
	// internal routers.
	originated bgp.PrefixMap[Announcement]
}

// peer is everything a router keeps per neighbor. A torn-down session
// keeps its entry, with up false and no Adj-RIB-Out, so its route maps,
// epoch and lane outlive it.
type peer struct {
	id     topology.NodeID
	kind   bgp.SessionKind // the router's role towards id, while up
	up     bool
	epoch  uint32       // teardowns so far; a delivery sent before the last is stale (see deliver)
	maps   [2]*RouteMap // route maps by Direction (nil: permit all)
	adjOut *bgp.RIB     // last route sent to id per prefix, so exports are diffs
	tail   *message     // newest message in flight from id: its lane's tail (see enqueue)
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
		adjIn:    bgp.NewAdjIn(attrs),
		locRib:   bgp.NewRIBOn(attrs),
	}
}

// clone returns an independent copy of r whose tables intern into attrs, a
// fork of r's attribute table. The route tables and originated
// announcements are copy-on-write shares; the configuration — the peer
// table and its route maps — is copied wholesale.
func (r *router) clone(attrs *bgp.AttrTable) *router {
	c := &router{
		id:         r.id,
		external:   r.external,
		attrs:      attrs,
		peers:      slices.Clone(r.peers),
		adjIn:      r.adjIn.CloneOn(attrs),
		locRib:     r.locRib.CloneOn(attrs),
		originated: r.originated.Clone(),
	}
	for i := range c.peers {
		p := &c.peers[i]
		for d, rm := range p.maps {
			if rm != nil {
				p.maps[d] = &RouteMap{entries: slices.Clone(rm.entries)}
			}
		}
		if p.adjOut != nil {
			p.adjOut = p.adjOut.CloneOn(attrs)
		}
	}
	return c
}

// find returns where id's entry is, or would go, and whether it is there. On
// slices.BinarySearchFunc's generic comparator exec-replay ran 15 % slower.
func (r *router) find(id topology.NodeID) (int, bool) {
	i, j := 0, len(r.peers)
	for i < j {
		if h := int(uint(i+j) >> 1); r.peers[h].id < id {
			i = h + 1
		} else {
			j = h
		}
	}
	return i, i < len(r.peers) && r.peers[i].id == id
}

// peer returns id's entry, or nil; peerFor inserts an empty one first if
// there is none. The pointer is into the table: it is valid until the next
// insertion.
func (r *router) peer(id topology.NodeID) *peer {
	if i, ok := r.find(id); ok {
		return &r.peers[i]
	}
	return nil
}

func (r *router) peerFor(id topology.NodeID) *peer {
	i, ok := r.find(id)
	if !ok {
		r.peers = slices.Insert(r.peers, i, peer{id: id})
	}
	return &r.peers[i]
}

// session returns the router's role towards id and whether a session is
// up.
func (r *router) session(id topology.NodeID) (bgp.SessionKind, bool) {
	if p := r.peer(id); p != nil && p.up {
		return p.kind, true
	}
	return 0, false
}

func (r *router) routeMap(dir Direction, neighbor topology.NodeID) *RouteMap {
	if p := r.peer(neighbor); p != nil {
		return p.maps[dir]
	}
	return nil
}

func (r *router) ensureRouteMap(dir Direction, neighbor topology.NodeID) *RouteMap {
	rm := &r.peerFor(neighbor).maps[dir]
	if *rm == nil {
		*rm = &RouteMap{}
	}
	return *rm
}

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

// exportTo builds in out the route this router would advertise to up peer p
// for prefix, applying the iBGP/eBGP/route-reflection export rules and the
// egress route map, and reports false if nothing may be advertised. The
// selected route is read in place; the extended path and cluster list go
// into b, and an unchanged cluster list stays the selected record's, which
// nothing writes to.
func (r *router) exportTo(p *peer, prefix bgp.Prefix, out *bgp.Route, b *routeBufs) bool {
	h, have := r.locRib.Handle(prefix)
	if !have {
		return false
	}
	neighbor, toKind := p.id, p.kind
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
			fromKind, _ := r.session(learnedFrom)
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
	permit, _ := p.maps[Out].Apply(neighbor, out)
	return permit
}
