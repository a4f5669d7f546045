package sim

import (
	"fmt"
	"sort"
	"time"

	"chameleon/internal/bgp"
	"chameleon/internal/topology"
)

// This file implements intermediate-state capture: a converged network's
// complete configuration and routing state rendered as a plain serializable
// value, and the inverse operation installing such a value onto a freshly
// built network over the same topology. The reconfiguration supervisor's
// crash-safe journal embeds these snapshots so a restarted process can
// reconstruct the exact network a crashed supervisor left behind — same
// sessions, route maps, RIBs, simulated clock and RNG run index — and
// resume (or roll back) deterministically.

// SessionState is one directed session role in a snapshot.
type SessionState struct {
	Peer topology.NodeID `json:"peer"`
	Kind bgp.SessionKind `json:"kind"`
}

// RouteMapState is one route map (direction × neighbor) in a snapshot.
type RouteMapState struct {
	Dir      Direction       `json:"dir"`
	Neighbor topology.NodeID `json:"neighbor"`
	Entries  []Entry         `json:"entries"`
}

// NeighborRouteState is one Adj-RIB-In entry in a snapshot.
type NeighborRouteState struct {
	Neighbor topology.NodeID `json:"neighbor"`
	Route    bgp.Route       `json:"route"`
}

// AdjOutState records the routes last sent to one neighbor.
type AdjOutState struct {
	Neighbor topology.NodeID `json:"neighbor"`
	Routes   []bgp.Route     `json:"routes"`
}

// OriginatedState is one external announcement in a snapshot.
type OriginatedState struct {
	Prefix       bgp.Prefix `json:"prefix"`
	Announcement `json:"ann"`
}

// RouterState is the full per-router state in a snapshot. Slices are in
// deterministic (sorted) order so identical networks capture to identical
// bytes.
type RouterState struct {
	ID         topology.NodeID      `json:"id"`
	External   bool                 `json:"external,omitempty"`
	Sessions   []SessionState       `json:"sessions,omitempty"`
	RouteMaps  []RouteMapState      `json:"route_maps,omitempty"`
	AdjIn      []NeighborRouteState `json:"adj_in,omitempty"`
	LocRIB     []bgp.Route          `json:"loc_rib,omitempty"`
	AdjOut     []AdjOutState        `json:"adj_out,omitempty"`
	Originated []OriginatedState    `json:"originated,omitempty"`
}

// PrefixCount is one per-prefix counter in a snapshot.
type PrefixCount struct {
	Prefix bgp.Prefix `json:"prefix"`
	Count  int        `json:"count"`
}

// NetState is a serializable snapshot of a converged network: everything a
// restarted controller needs to reconstruct the intermediate state —
// configuration (sessions, route maps), routing (Adj-RIB-In, Loc-RIB,
// Adj-RIB-Out, originations), the simulated clock and the RNG run index —
// but no in-flight events (capture requires convergence) and no wall-clock
// residue.
type NetState struct {
	Now             time.Duration `json:"now_ns"`
	Run             uint64        `json:"run"`
	MsgCount        uint64        `json:"msg_count"`
	MaxTableEntries int           `json:"max_table_entries"`
	EBGPExports     []PrefixCount `json:"ebgp_exports,omitempty"`
	Routers         []RouterState `json:"routers"`
}

// Entries returns a copy of the route map's clauses in evaluation order,
// for snapshotting and inspection.
func (rm *RouteMap) Entries() []Entry {
	if rm == nil {
		return nil
	}
	out := make([]Entry, len(rm.entries))
	copy(out, rm.entries)
	return out
}

// CaptureState snapshots the network's complete configuration and routing
// state. The event queue must be empty, timers included: queued events are
// not part of a snapshot by design (the supervisor only snapshots at
// recovery boundaries, after an abort has drained the queue). The result is
// deterministic — identical networks capture to identical values.
func (n *Network) CaptureState() (*NetState, error) {
	if len(n.queue) > 0 {
		return nil, fmt.Errorf("sim: CaptureState requires an empty event queue (%d events pending)", n.Pending())
	}
	st := &NetState{
		Now:             n.now,
		Run:             n.run,
		MsgCount:        n.msgCount,
		MaxTableEntries: n.maxTableEntries,
	}
	var prefixes []bgp.Prefix
	for p := range n.ebgpExports {
		prefixes = append(prefixes, p)
	}
	sort.Slice(prefixes, func(i, j int) bool { return prefixes[i] < prefixes[j] })
	for _, p := range prefixes {
		st.EBGPExports = append(st.EBGPExports, PrefixCount{Prefix: p, Count: n.ebgpExports[p]})
	}
	for _, r := range n.routers {
		st.Routers = append(st.Routers, captureRouter(r))
	}
	return st, nil
}

func captureRouter(r *router) RouterState {
	rs := RouterState{ID: r.id, External: r.external}
	for _, p := range r.peers {
		if p.up {
			rs.Sessions = append(rs.Sessions, SessionState{Peer: p.id, Kind: p.kind})
		}
	}
	for _, dir := range []Direction{In, Out} {
		for i := range r.peers {
			if rm := r.peers[i].maps[dir]; rm.Len() > 0 {
				rs.RouteMaps = append(rs.RouteMaps, RouteMapState{Dir: dir, Neighbor: r.peers[i].id, Entries: rm.Entries()})
			}
		}
	}
	r.adjIn.RangePrefixes(func(p bgp.Prefix) bool {
		r.adjIn.RangeCandidates(p, func(nb topology.NodeID, rt bgp.Route) bool {
			rs.AdjIn = append(rs.AdjIn, NeighborRouteState{Neighbor: nb, Route: rt})
			return true
		})
		return true
	})
	r.locRib.Range(func(_ bgp.Prefix, rt bgp.Route) bool {
		rs.LocRIB = append(rs.LocRIB, rt)
		return true
	})
	for _, p := range r.peers {
		if p.adjOut == nil || p.adjOut.Len() == 0 {
			continue
		}
		ao := AdjOutState{Neighbor: p.id}
		p.adjOut.Range(func(_ bgp.Prefix, rt bgp.Route) bool {
			ao.Routes = append(ao.Routes, rt)
			return true
		})
		rs.AdjOut = append(rs.AdjOut, ao)
	}
	r.originated.Range(func(p bgp.Prefix, a Announcement) bool {
		rs.Originated = append(rs.Originated, OriginatedState{Prefix: p, Announcement: a})
		return true
	})
	return rs
}

// RestoreState installs a captured snapshot onto this network, replacing
// every router's configuration and routing state, the simulated clock and
// the RNG run index. The network must be converged (no event may straddle a
// restore) and must be built over a graph with the same node set as the one
// the snapshot was taken on — the supervisor rebuilds the scenario from its
// journaled (topology, seed) key first, which guarantees this.
//
// Determinism contract: a network rebuilt from the same scenario key and
// then restored from a snapshot continues exactly like the network the
// snapshot was taken from — the clock matches, run-scoped RNG streams are
// re-derived from the run index on the next BeginRun, and the drained queue
// means no in-flight ordering state survives (the restored routers' lanes
// are empty and session epochs start over, which no future send can tell).
func (n *Network) RestoreState(st *NetState) error {
	if len(n.queue) > 0 {
		return fmt.Errorf("sim: RestoreState requires an empty event queue (%d events pending)", n.Pending())
	}
	if len(st.Routers) != len(n.routers) {
		return fmt.Errorf("sim: snapshot has %d routers, network has %d", len(st.Routers), len(n.routers))
	}
	for i, rs := range st.Routers {
		if rs.ID != n.routers[i].id || rs.External != n.routers[i].external {
			return fmt.Errorf("sim: snapshot router %d (id %d, external %v) does not match network (id %d, external %v)",
				i, int(rs.ID), rs.External, int(n.routers[i].id), n.routers[i].external)
		}
	}
	for i, rs := range st.Routers {
		r := newRouter(rs.ID, rs.External, n.attrs)
		for _, s := range rs.Sessions {
			p := r.peerFor(s.Peer)
			p.kind, p.up = s.Kind, true
		}
		for _, rm := range rs.RouteMaps {
			m := r.ensureRouteMap(rm.Dir, rm.Neighbor)
			for _, e := range rm.Entries {
				m.Add(e)
			}
		}
		for _, nr := range rs.AdjIn {
			r.adjIn.Set(nr.Neighbor, nr.Route)
		}
		for _, rt := range rs.LocRIB {
			r.locRib.Set(rt)
		}
		for _, ao := range rs.AdjOut {
			t := bgp.NewRIBOn(r.attrs)
			r.peerFor(ao.Neighbor).adjOut = t
			for _, rt := range ao.Routes {
				t.Set(rt)
			}
		}
		for _, o := range rs.Originated {
			r.originated.Set(o.Prefix, o.Announcement)
		}
		n.routers[i] = r
	}
	n.now = st.Now
	n.run = st.Run
	n.msgCount = st.MsgCount
	n.maxTableEntries = st.MaxTableEntries
	n.ebgpExports = make(map[bgp.Prefix]int, len(st.EBGPExports))
	for _, pc := range st.EBGPExports {
		n.ebgpExports[pc.Prefix] = pc.Count
	}
	n.dirty = make(map[bgp.Prefix]causeMark)
	n.curCause, n.curHops = 0, 0
	n.pendingCmds = nil
	n.recountTableEntries()
	return nil
}
