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
// announces and the prefixes it withdraws, each in ascending prefix order.
// Nothing writes to a message once it is sent.
type message struct {
	from, to  topology.NodeID
	updates   []bgp.Route
	withdraws []bgp.Prefix

	// one backs updates until a second route is announced, so the common
	// message — one route — is a single allocation.
	one [1]bgp.Route
}

// announce adds rt to the message. rest is the number of routes, rt
// included, the sender may still add: a payload that outgrows the inline
// array is sized once, never regrown.
func (m *message) announce(rt bgp.Route, rest int) {
	if m.updates == nil {
		m.updates = m.one[:0]
	}
	m.updates = append(slices.Grow(m.updates, rest), rt)
}

// withdraw adds p to the message's withdrawals; rest as for announce.
func (m *message) withdraw(p bgp.Prefix, rest int) {
	m.withdraws = append(slices.Grow(m.withdraws, rest), p)
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
	for _, peer := range r.neighbors() {
		n.originate(ext, peer, anns)
	}
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
	// The copy is the payload: the sessions' messages share it.
	sorted := slices.Clone(prefixes)
	slices.Sort(sorted)
	for _, p := range sorted {
		r.originated.Delete(p)
	}
	for _, peer := range r.neighbors() {
		n.sendMsg(&message{from: ext, to: peer, withdraws: sorted})
	}
}

// originate sends peer one message announcing anns (ascending by prefix) as
// external network ext originates them.
func (n *Network) originate(ext, peer topology.NodeID, anns []Announcement) {
	m := &message{from: ext, to: peer}
	for i, ann := range anns {
		m.announce(externalRoute(peer, ext, ann), len(anns)-i)
	}
	n.sendMsg(m)
}

// externalRoute builds the route an external announcement becomes at the
// receiving border router.
func externalRoute(peer, ext topology.NodeID, ann Announcement) bgp.Route {
	return bgp.Route{
		Prefix:       ann.Prefix,
		Egress:       peer,
		External:     ext,
		Path:         []topology.NodeID{peer},
		LocalPref:    bgp.DefaultLocalPref,
		ASPathLen:    ann.ASPathLen,
		MED:          ann.MED,
		FromEBGP:     true,
		OriginatorID: topology.None,
	}
}

// deliver applies a message at its receiver: all Adj-RIB-In mutations
// first, then one decision pass over the affected prefixes.
func (n *Network) deliver(m *message) {
	n.msgCount++
	n.count(obs.CtrBGPUpdates, int64(len(m.updates)))
	n.count(obs.CtrBGPWithdraws, int64(len(m.withdraws)))
	r := n.routers[m.to]
	if _, up := r.sessions[m.from]; !up {
		return // session went away while the message was in flight
	}
	if r.external {
		// External networks are sinks; record exports for the
		// no-transient-leak invariant.
		for _, rt := range m.updates {
			r.adjIn.Set(m.from, rt)
			n.ebgpExports[rt.Prefix]++
		}
		for _, p := range m.withdraws {
			r.adjIn.Withdraw(m.from, p)
		}
		return
	}
	affected := n.affected[:0]
	for _, rt := range m.updates {
		if r.acceptable(rt) {
			n.adjInSet(r, m.from, rt)
		} else {
			// Loop-rejected; an earlier route from this neighbor is
			// implicitly replaced (treat as withdraw).
			n.adjInWithdraw(r, m.from, rt.Prefix)
		}
		affected = append(affected, rt.Prefix)
	}
	for _, p := range m.withdraws {
		if n.adjInWithdraw(r, m.from, p) {
			affected = append(affected, p)
		}
	}
	n.affected = affected
	n.runDecisions(r, affected)
}

// adjInSet and adjInWithdraw funnel every internal-router Adj-RIB-In
// mutation through the incremental tableEntries counter.
func (n *Network) adjInSet(r *router, from topology.NodeID, route bgp.Route) {
	if r.adjIn.Set(from, route) {
		n.tableEntries++
	}
}

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

// runDecisions re-runs best-path selection at r for each of prefixes, sends
// every neighbor what changed as one message, then re-evaluates r's
// aggregates. Exports go first: a summary's own updates follow the
// contributor's, as they do when routes arrive one message each. prefixes
// is overwritten.
func (n *Network) runDecisions(r *router, prefixes []bgp.Prefix) {
	changed := prefixes[:0]
	contributor := false
	for _, p := range prefixes {
		if n.decide(r, p) {
			changed = append(changed, p)
			contributor = contributor || len(r.aggRules) > 0 && !isSummary(r, p)
		}
	}
	if len(changed) == 0 {
		return
	}
	for _, peer := range r.neighbors() {
		n.export(r, peer, changed)
	}
	if contributor {
		// A contributor change may (de)activate a summary (§8 aggregation).
		n.evalAggregates(r.id)
	}
}

// export diffs the desired exports of r for the given prefixes against
// Adj-RIB-Out towards peer and sends at most one message carrying all
// resulting updates and withdrawals. It is the only place an export meets
// the Adj-RIB-Out.
func (n *Network) export(r *router, peer topology.NodeID, prefixes []bgp.Prefix) {
	if r.external {
		return
	}
	var m *message // made at the first difference
	out := r.adjOut[peer]
	for i, p := range prefixes {
		want, ok := r.exportTo(peer, p, n.arena)
		var sent bgp.Route
		wasSent := false
		if out != nil {
			sent, wasSent = out.Get(p)
		}
		if !ok && !wasSent || ok && wasSent && routesIdentical(want, sent) {
			continue
		}
		if m == nil {
			m = &message{from: r.id, to: peer}
		}
		if ok {
			if out == nil {
				out = r.adjOutFor(peer)
			}
			out.Set(want)
			m.announce(want, len(prefixes)-i)
		} else {
			out.Delete(p)
			m.withdraw(p, len(prefixes)-i)
		}
	}
	if m != nil {
		n.sendMsg(m)
	}
}
