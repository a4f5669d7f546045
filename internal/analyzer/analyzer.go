// Package analyzer implements Chameleon's first stage (§3): it extracts,
// from the initial and final converged networks, the per-node selected
// routes (Pold, Pnew), forwarding states (nhold, nhnew), and the provider
// sets Dold(n), Dnew(n) — the neighbors advertising routes identical to the
// node's initial/final route — which induce the happens-before relations
// the scheduler turns into ILP constraints.
package analyzer

import (
	"context"
	"fmt"

	"chameleon/internal/bgp"
	"chameleon/internal/fwd"
	"chameleon/internal/obs"
	"chameleon/internal/sim"
	"chameleon/internal/topology"
)

// Analysis is the full §3 description of one reconfiguration for one
// destination (prefix equivalence class).
type Analysis struct {
	Graph  *topology.Graph
	Prefix bgp.Prefix

	// POld and PNew are the selected routes in the initial and final
	// states; HaveOld/HaveNew flag presence. Indexed by node ID.
	POld, PNew       []bgp.Route
	HaveOld, HaveNew []bool

	// NHOld and NHNew are the initial and final forwarding states.
	NHOld, NHNew fwd.State

	// DOld[n] lists the internal neighbors that advertise a route
	// identical (same announcement and propagated attributes) to POld[n];
	// DNew likewise for PNew. Egress routers receiving the route over
	// eBGP have ExtProviderOld/New set instead.
	DOld, DNew                     [][]topology.NodeID
	ExtProviderOld, ExtProviderNew []bool

	// Switching lists the nodes whose announcement changes between the
	// two states (the update-phase participants); EquivalentSwitch lists
	// nodes whose selected route changes only among equivalent routes
	// (handled in setup/cleanup).
	Switching        []topology.NodeID
	EquivalentSwitch []topology.NodeID

	// sessions records the initial configuration's BGP sessions, so the
	// compiler never tears down a pre-existing session when a "temporary"
	// session coincides with one.
	sessions map[[2]topology.NodeID]bool
}

// SessionExists reports whether the initial configuration already has a
// BGP session between a and b.
func (a *Analysis) SessionExists(x, y topology.NodeID) bool {
	if x > y {
		x, y = y, x
	}
	return a.sessions[[2]topology.NodeID{x, y}]
}

// AnalyzeCtx builds the Analysis for prefix from a converged initial and
// final network. Both networks must be converged and route-consistent, and
// every internal node must hold a route in both states (the paper assumes
// initial and final configurations are correct). It records an "analyze"
// span on the context's *obs.Recorder (if any) with the switching-set size
// as attributes. The analysis itself is pure and fast; the context carries
// no cancellation points here.
func AnalyzeCtx(ctx context.Context, initial, final *sim.Network, prefix bgp.Prefix) (*Analysis, error) {
	_, span := obs.StartSpan(ctx, "analyze")
	defer span.End()
	a, err := analyze(initial, final, prefix)
	if err == nil {
		span.SetAttr("switching", fmt.Sprintf("%d", len(a.Switching)))
		span.SetAttr("equivalent", fmt.Sprintf("%d", len(a.EquivalentSwitch)))
	}
	return a, err
}

func analyze(initial, final *sim.Network, prefix bgp.Prefix) (*Analysis, error) {
	if !initial.Converged() || !final.Converged() {
		return nil, fmt.Errorf("analyzer: networks must be converged")
	}
	g := initial.Graph()
	a := &Analysis{Graph: g, Prefix: prefix}
	a.POld, a.HaveOld = initial.RoutingState(prefix)
	a.PNew, a.HaveNew = final.RoutingState(prefix)
	a.NHOld = initial.ForwardingState(prefix)
	a.NHNew = final.ForwardingState(prefix)

	if err := CheckConsistent(initial, prefix); err != nil {
		return nil, fmt.Errorf("analyzer: initial state: %w", err)
	}
	if err := CheckConsistent(final, prefix); err != nil {
		return nil, fmt.Errorf("analyzer: final state: %w", err)
	}

	a.sessions = make(map[[2]topology.NodeID]bool)
	for _, node := range g.Internal() {
		for _, nb := range initial.Sessions(node) {
			x, y := node, nb
			if x > y {
				x, y = y, x
			}
			a.sessions[[2]topology.NodeID{x, y}] = true
		}
	}

	n := g.NumNodes()
	a.DOld = make([][]topology.NodeID, n)
	a.DNew = make([][]topology.NodeID, n)
	a.ExtProviderOld = make([]bool, n)
	a.ExtProviderNew = make([]bool, n)

	for _, node := range g.Internal() {
		if !a.HaveOld[node] || !a.HaveNew[node] {
			return nil, fmt.Errorf("analyzer: node %s lacks a route in the %s state",
				g.Node(node).Name, map[bool]string{true: "final", false: "initial"}[!a.HaveNew[node]])
		}
		var err error
		a.DOld[node], a.ExtProviderOld[node], err = providers(initial, node, a.POld[node])
		if err != nil {
			return nil, fmt.Errorf("analyzer: old providers of %s: %w", g.Node(node).Name, err)
		}
		a.DNew[node], a.ExtProviderNew[node], err = providers(final, node, a.PNew[node])
		if err != nil {
			return nil, fmt.Errorf("analyzer: new providers of %s: %w", g.Node(node).Name, err)
		}
		if sameAnnouncement(a.POld[node], a.PNew[node]) {
			if !a.POld[node].PathEqual(a.PNew[node]) {
				a.EquivalentSwitch = append(a.EquivalentSwitch, node)
			}
		} else {
			a.Switching = append(a.Switching, node)
		}
	}
	return a, nil
}

// providers returns the neighbors of node that advertise a route identical
// to sel (same announcement, same propagated attributes): the paper's D(n).
// If node learns sel over eBGP the external flag is returned instead.
func providers(net *sim.Network, node topology.NodeID, sel bgp.Route) ([]topology.NodeID, bool, error) {
	if sel.FromEBGP && sel.Egress == node {
		return nil, true, nil
	}
	g := net.Graph()
	var out []topology.NodeID
	for _, cand := range net.Candidates(node, sel.Prefix) {
		if cand.FromEBGP {
			continue
		}
		if !cand.SameAnnouncement(sel) {
			continue
		}
		if cand.LocalPref != sel.LocalPref || cand.ASPathLen != sel.ASPathLen || cand.MED != sel.MED {
			continue
		}
		pre := cand.Pre()
		if pre == topology.None || g.Node(pre).External {
			continue
		}
		out = append(out, pre)
	}
	if len(out) == 0 {
		return nil, false, fmt.Errorf("no internal provider for %v", sel)
	}
	return out, false, nil
}

func sameAnnouncement(a, b bgp.Route) bool {
	return a.SameAnnouncement(b) && a.LocalPref == b.LocalPref &&
		a.ASPathLen == b.ASPathLen && a.MED == b.MED
}

// ChangesNextHop reports whether node's forwarding next hop differs between
// the two states.
func (a *Analysis) ChangesNextHop(node topology.NodeID) bool {
	return a.NHOld[node] != a.NHNew[node]
}

// NodesChangingNextHop returns N_nh = {n | nhold(n) ≠ nhnew(n)}.
func (a *Analysis) NodesChangingNextHop() []topology.NodeID {
	var out []topology.NodeID
	for _, n := range a.Graph.Internal() {
		if a.ChangesNextHop(n) {
			out = append(out, n)
		}
	}
	return out
}

// ReconfigurationComplexity computes Cr (§7.1): for every node that changes
// its next hop, the number of next-hop-changing nodes reachable in the
// union graph G_nh of the old and new forwarding states.
func (a *Analysis) ReconfigurationComplexity() int {
	changing := a.NodesChangingNextHop()
	inNnh := make(map[topology.NodeID]bool, len(changing))
	for _, n := range changing {
		inNnh[n] = true
	}
	total := 0
	for _, src := range changing {
		// DFS over the union graph.
		seen := make(map[topology.NodeID]bool)
		stack := []topology.NodeID{src}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[n] {
				continue
			}
			seen[n] = true
			for _, nh := range []topology.NodeID{a.NHOld[n], a.NHNew[n]} {
				if nh >= 0 && !seen[nh] {
					stack = append(stack, nh)
				}
			}
		}
		for n := range seen {
			if inNnh[n] {
				total++
			}
		}
	}
	return total
}

// UnionForwardingGraph returns the adjacency (old and new next hop per
// node) of G_nh used for loop enumeration (§4.4) and Cr.
func (a *Analysis) UnionForwardingGraph() map[topology.NodeID][]topology.NodeID {
	out := make(map[topology.NodeID][]topology.NodeID)
	for _, n := range a.Graph.Internal() {
		var succ []topology.NodeID
		if a.NHOld[n] >= 0 {
			succ = append(succ, a.NHOld[n])
		}
		if a.NHNew[n] >= 0 && a.NHNew[n] != a.NHOld[n] {
			succ = append(succ, a.NHNew[n])
		}
		out[n] = succ
	}
	return out
}

// SimpleCycles enumerates all simple cycles of the union forwarding graph
// (each node has out-degree ≤ 2, so the cycle count stays small in
// practice). Cycles are returned as node sequences without the repeated
// final node. Enumeration stops after limit cycles (0 = no limit).
func (a *Analysis) SimpleCycles(limit int) [][]topology.NodeID {
	adj := a.UnionForwardingGraph()
	var cycles [][]topology.NodeID
	// DFS from every node; only record cycles whose minimum element is the
	// start node to avoid duplicates.
	var path []topology.NodeID
	onPath := make(map[topology.NodeID]int)
	var dfs func(start, cur topology.NodeID) bool
	dfs = func(start, cur topology.NodeID) bool {
		if idx, ok := onPath[cur]; ok {
			if cur == start {
				cycle := append([]topology.NodeID(nil), path[idx:]...)
				cycles = append(cycles, cycle)
				if limit > 0 && len(cycles) >= limit {
					return false
				}
			}
			return true
		}
		onPath[cur] = len(path)
		path = append(path, cur)
		for _, nxt := range adj[cur] {
			if nxt < start {
				continue // canonical: cycles are rooted at their minimum node
			}
			if !dfs(start, nxt) {
				return false
			}
		}
		path = path[:len(path)-1]
		delete(onPath, cur)
		return true
	}
	for _, n := range a.Graph.Internal() {
		path = path[:0]
		for k := range onPath {
			delete(onPath, k)
		}
		if !dfs(n, n) {
			break
		}
	}
	return cycles
}

// CheckConsistent verifies §3 routing-state consistency of a converged
// network for prefix: every selected route's predecessor selects exactly
// the route's prefix-path.
func CheckConsistent(net *sim.Network, prefix bgp.Prefix) error {
	routes, have := net.RoutingState(prefix)
	g := net.Graph()
	for _, n := range g.Internal() {
		if !have[n] {
			continue
		}
		r := routes[n]
		pre := r.Pre()
		if pre == topology.None {
			continue
		}
		if !have[pre] {
			return fmt.Errorf("node %s selects %v but %s has no route",
				g.Node(n).Name, r, g.Node(pre).Name)
		}
		pr := routes[pre]
		if !pr.SameAnnouncement(r) || len(pr.Path) != len(r.Path)-1 {
			return fmt.Errorf("node %s selects %v inconsistent with %s's %v",
				g.Node(n).Name, r, g.Node(pre).Name, pr)
		}
		for i := range pr.Path {
			if pr.Path[i] != r.Path[i] {
				return fmt.Errorf("node %s path mismatch with %s", g.Node(n).Name, g.Node(pre).Name)
			}
		}
	}
	return nil
}
