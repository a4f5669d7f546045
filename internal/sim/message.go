package sim

import (
	"cmp"
	"fmt"
	"slices"

	"chameleon/internal/bgp"
	"chameleon/internal/obs"
	"chameleon/internal/topology"
)

// This file is the life of a BGP message, top to bottom: an external network
// originates it, deliver applies it at the receiving router, and export
// produces the messages that follow from what changed there. There is one
// message type and one routine for each step; a single announcement is a
// message of one route.
//
// A message carrying n routes is applied as a whole: every Adj-RIB-In
// mutation first, then one decision pass per affected prefix, then at most
// one outgoing message per neighbor. Injecting 100k subscriber routes as one
// block therefore traverses the network in O(sessions) messages instead of
// O(routes × sessions). For distinct prefixes the outcome equals delivering
// the routes one message each: every prefix sees the same Adj-RIB-In mutation
// and the same decision; only the message count (and therefore jitter draws
// and delivery interleavings) differs.

// message is a BGP message in flight on a directed session: the routes it
// announces and the prefixes it withdraws, in ascending prefix order. A route
// travels as its prefix and the handle its sender interned into the
// network's one attribute table, which the receiver stores as it is; a
// withdrawal is its prefix under the withdrawn handle. Nothing writes to a
// message's payload once it is sent.
type message struct {
	// delivery is the message's queue event, so a message and its delivery
	// are one allocation.
	delivery event
	// next is the message sent after this one on the same directed session
	// while this one is in flight: the session's lane (see enqueue).
	next     *message
	from, to topology.NodeID
	routes   []update

	// one backs routes until a second one is added, so the common message
	// — one route — is a single allocation.
	one [1]update
}

// update announces the route for prefix whose attributes the network's
// attribute table holds under h, or withdraws prefix when h is withdrawn.
type update struct {
	prefix bgp.Prefix
	h      uint32
}

// withdrawn is the handle of a withdrawal. An attribute table hands out at
// most 2^32 - 1 handles, so no record has it.
const withdrawn = ^uint32(0)

// add appends (p, h) to the message. rest is the number of routes, this one
// included, the sender may still add: a payload that outgrows the inline
// array is sized once, never regrown.
func (m *message) add(p bgp.Prefix, h uint32, rest int) {
	if m.routes == nil {
		m.routes = m.one[:0]
	}
	m.routes = append(slices.Grow(m.routes, rest), update{p, h})
}

// routeBufs back the Path and ClusterList of a route built for interning.
// They outlive the route, so building one allocates nothing once they have
// grown; the attribute table copies them into a record only when the
// attributes are new to it.
type routeBufs struct {
	path, clusters []topology.NodeID
}

// InjectExternalRoute makes external network ext originate ann and
// advertise it over all of ext's eBGP sessions.
func (n *Network) InjectExternalRoute(ext topology.NodeID, ann Announcement) {
	n.InjectExternalRoutes(ext, []Announcement{ann})
}

// WithdrawExternalRoute withdraws a previously originated prefix.
func (n *Network) WithdrawExternalRoute(ext topology.NodeID, prefix bgp.Prefix) {
	n.WithdrawExternalRoutes(ext, []bgp.Prefix{prefix})
}

// InjectExternalRoutes makes external network ext originate every given
// announcement and advertise them over all of ext's eBGP sessions as one
// message per session. Announcements are processed in ascending prefix
// order regardless of input order, keeping executions deterministic; of
// several announcements for one prefix the last one stands, as it would
// announcing them one call each.
func (n *Network) InjectExternalRoutes(ext topology.NodeID, anns []Announcement) {
	r := n.routers[ext]
	if !r.external {
		panic(fmt.Sprintf("sim: InjectExternalRoutes on internal node %d", ext))
	}
	if len(anns) == 0 {
		return
	}
	byPrefix := func(a, b Announcement) int { return cmp.Compare(a.Prefix, b.Prefix) }
	if !slices.IsSortedFunc(anns, byPrefix) {
		anns = slices.Clone(anns)
		slices.SortStableFunc(anns, byPrefix)
	}
	for _, ann := range anns {
		r.originated.Set(ann.Prefix, ann)
	}
	n.RangeSessions(ext, func(peer topology.NodeID) bool {
		n.originate(ext, peer, anns)
		return true
	})
}

// WithdrawExternalRoutes withdraws previously originated prefixes as one
// message per eBGP session. Like the announcing forms it refuses an internal
// node, which would tell its neighbors to drop routes it still selects.
func (n *Network) WithdrawExternalRoutes(ext topology.NodeID, prefixes []bgp.Prefix) {
	r := n.routers[ext]
	if !r.external {
		panic(fmt.Sprintf("sim: WithdrawExternalRoutes on internal node %d", ext))
	}
	if len(prefixes) == 0 {
		return
	}
	// The withdrawals are the payload: the sessions' messages share it.
	sorted := make([]update, len(prefixes))
	for i, p := range prefixes {
		sorted[i] = update{p, withdrawn}
	}
	slices.SortFunc(sorted, func(a, b update) int { return cmp.Compare(a.prefix, b.prefix) })
	for _, u := range sorted {
		r.originated.Delete(u.prefix)
	}
	n.RangeSessions(ext, func(peer topology.NodeID) bool {
		n.sendMsg(&message{from: ext, to: peer, routes: sorted})
		return true
	})
}

// originate sends peer one message announcing anns (ascending by prefix) as
// external network ext originates them: the route each becomes at peer,
// interned.
func (n *Network) originate(ext, peer topology.NodeID, anns []Announcement) {
	m := &message{from: ext, to: peer}
	n.bufs.path = append(n.bufs.path[:0], peer)
	for i, ann := range anns {
		rt := bgp.Route{
			Prefix:       ann.Prefix,
			Egress:       peer,
			External:     ext,
			Path:         n.bufs.path,
			LocalPref:    bgp.DefaultLocalPref,
			ASPathLen:    ann.ASPathLen,
			MED:          ann.MED,
			FromEBGP:     true,
			OriginatorID: topology.None,
		}
		m.add(ann.Prefix, n.attrs.Intern(&rt), len(anns)-i)
	}
	n.sendMsg(m)
}

// deliver applies delivery e's message at its receiver: all Adj-RIB-In
// mutations first, announcements before withdrawals, then one decision pass
// over the affected prefixes. The receiver stores each handle the sender
// interned; nothing is hashed here.
func (n *Network) deliver(e *event) {
	m := e.msg
	n.msgCount++
	withdraws := 0
	for _, u := range m.routes {
		if u.h == withdrawn {
			withdraws++
		}
	}
	n.count(obs.CtrBGPUpdates, int64(len(m.routes)-withdraws))
	n.count(obs.CtrBGPWithdraws, int64(withdraws))
	r := n.routers[m.to]
	if pe := r.peer(m.from); pe == nil || !pe.up || pe.epoch != e.epoch {
		return // the session it was sent on went away while it was in flight
	}
	if r.external {
		// External networks are sinks; record exports for the
		// no-transient-leak invariant.
		for _, u := range m.routes {
			if u.h != withdrawn {
				r.adjIn.SetHandle(m.from, u.prefix, u.h)
				n.ebgpExports[u.prefix]++
			}
		}
		for _, u := range m.routes {
			if u.h == withdrawn {
				r.adjIn.Withdraw(m.from, u.prefix)
			}
		}
		return
	}
	affected := n.affected[:0]
	for _, u := range m.routes {
		if u.h == withdrawn {
			continue
		}
		if r.acceptable(n.attrs.At(u.h)) {
			if r.adjIn.SetHandle(m.from, u.prefix, u.h) {
				n.tableEntries++
			}
		} else {
			// Loop-rejected; an earlier route from this neighbor is
			// implicitly replaced (treat as withdraw).
			n.adjInWithdraw(r, m.from, u.prefix)
		}
		affected = append(affected, u.prefix)
	}
	for _, u := range m.routes {
		if u.h == withdrawn && n.adjInWithdraw(r, m.from, u.prefix) {
			affected = append(affected, u.prefix)
		}
	}
	n.affected = affected
	n.runDecisions(r, affected)
}

// adjInWithdraw funnels every internal-router Adj-RIB-In withdrawal through
// the incremental tableEntries counter; deliver counts the insertions.
func (n *Network) adjInWithdraw(r *router, from topology.NodeID, prefix bgp.Prefix) bool {
	gone := r.adjIn.Withdraw(from, prefix)
	if gone {
		n.tableEntries--
	}
	return gone
}

// runDecision re-runs the best-path selection at node for prefix and, if
// the selection changed, propagates the new state.
func (n *Network) runDecision(node topology.NodeID, prefix bgp.Prefix) {
	n.runDecisions(n.routers[node], []bgp.Prefix{prefix})
}

// runDecisions re-runs best-path selection at r for each of prefixes and
// sends every neighbor what changed as one message. prefixes is overwritten.
func (n *Network) runDecisions(r *router, prefixes []bgp.Prefix) {
	changed := prefixes[:0]
	for _, p := range prefixes {
		if n.decide(r, p) {
			changed = append(changed, p)
		}
	}
	if len(changed) == 0 {
		return
	}
	for i := range r.peers {
		n.export(r, &r.peers[i], changed)
	}
}

// export diffs the desired exports of r for the given prefixes against
// Adj-RIB-Out towards pe and sends at most one message carrying all
// resulting updates and withdrawals. It is the only place an export meets
// the Adj-RIB-Out. A route is built in scratch, compared with the record
// last sent, and interned once, only if it is sent: the handle goes into
// Adj-RIB-Out and onto the message.
func (n *Network) export(r *router, pe *peer, prefixes []bgp.Prefix) {
	if r.external || !pe.up {
		return
	}
	var m *message // made at the first difference
	out := pe.adjOut
	var want bgp.Route
	for i, p := range prefixes {
		ok := r.exportTo(pe, p, &want, &n.bufs)
		var sent uint32
		wasSent := false
		if out != nil {
			sent, wasSent = out.Handle(p)
		}
		if !ok && !wasSent || ok && wasSent && routesIdentical(&want, n.attrs.At(sent)) {
			continue
		}
		if m == nil {
			m = &message{from: r.id, to: pe.id}
		}
		if ok {
			if out == nil {
				pe.adjOut = bgp.NewRIBOn(r.attrs)
				out = pe.adjOut
			}
			h := n.attrs.Intern(&want)
			out.SetHandle(p, h)
			m.add(p, h, len(prefixes)-i)
		} else {
			out.Delete(p)
			m.add(p, withdrawn, len(prefixes)-i)
		}
	}
	if m != nil {
		n.sendMsg(m)
	}
}
