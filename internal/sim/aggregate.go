package sim

import (
	"slices"

	"chameleon/internal/bgp"
	"chameleon/internal/topology"
)

// AggregateRule makes a router originate a summary route whenever it
// selects at least one contributor route — the border aggregation of §8
// ("routes are aggregated only at the network border to either reduce the
// number of routes handled in iBGP or to announce a single eBGP route").
// With SummaryOnly, contributor routes are suppressed towards iBGP
// neighbors, so the interior sees only the summary.
type AggregateRule struct {
	Summary      bgp.Prefix
	Contributors []bgp.Prefix
	SummaryOnly  bool
}

// AddAggregate installs an aggregation rule at node. The summary prefix
// must not be announced by anyone else. The rule takes effect immediately:
// newly suppressed contributors are withdrawn from all neighbors.
func (n *Network) AddAggregate(node topology.NodeID, rule AggregateRule) {
	r := n.routers[node]
	r.aggRules = append(r.aggRules, rule)
	n.evalAggregates(node)
	for i := range r.peers {
		for _, c := range rule.Contributors {
			n.export(r, &r.peers[i], []bgp.Prefix{c})
		}
	}
}

// RemoveAggregates clears all aggregation rules at node, withdrawing any
// active summaries.
func (n *Network) RemoveAggregates(node topology.NodeID) {
	r := n.routers[node]
	rules := r.aggRules
	r.aggRules = nil
	for _, rule := range rules {
		n.runDecision(node, rule.Summary)
		// Previously suppressed contributors may flow again.
		for i := range r.peers {
			for _, c := range rule.Contributors {
				n.export(r, &r.peers[i], []bgp.Prefix{c})
			}
		}
	}
}

// suppressed reports whether prefix must not be exported from node towards
// an iBGP neighbor because a summary-only aggregate covers it.
func (r *router) suppressed(prefix bgp.Prefix) bool {
	for _, rule := range r.aggRules {
		if rule.SummaryOnly && slices.Contains(rule.Contributors, prefix) {
			return true
		}
	}
	return false
}

// aggregateRoute returns the locally originated summary route for prefix
// if some aggregation rule for it is active (≥1 contributor selected via
// eBGP at this router).
func (r *router) aggregateRoute(prefix bgp.Prefix) (bgp.Route, bool) {
	for _, rule := range r.aggRules {
		if rule.Summary != prefix {
			continue
		}
		for _, c := range rule.Contributors {
			h, ok := r.locRib.Handle(c)
			if !ok {
				continue
			}
			if best := r.attrs.At(h); best.FromEBGP && best.Egress == r.id {
				// Originated as if learned over eBGP at this router: it
				// behaves like a normal egress route in iBGP.
				return bgp.Route{
					Prefix:       prefix,
					Egress:       r.id,
					External:     topology.None, // locally aggregated
					Path:         []topology.NodeID{r.id},
					LocalPref:    bgp.DefaultLocalPref,
					ASPathLen:    0,
					FromEBGP:     true,
					OriginatorID: topology.None,
				}, true
			}
		}
	}
	return bgp.Route{}, false
}

// evalAggregates re-runs the decision process for every summary prefix of
// node, letting the (dis)appearance of contributor routes originate or
// withdraw the summaries.
func (n *Network) evalAggregates(node topology.NodeID) {
	r := n.routers[node]
	for _, rule := range r.aggRules {
		n.runDecision(node, rule.Summary)
	}
}
