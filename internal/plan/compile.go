package plan

import (
	"fmt"
	"sort"

	"chameleon/internal/analyzer"
	"chameleon/internal/bgp"
	"chameleon/internal/scheduler"
	"chameleon/internal/sim"
	"chameleon/internal/topology"
)

// Compile transforms a node schedule into a reconfiguration plan (§5),
// interleaving the original reconfiguration commands: a command that denies
// the node's old route runs right after the node's r_nh, any other right
// before it.
func Compile(a *analyzer.Analysis, s *scheduler.NodeSchedule, originals []sim.Command) (*Plan, error) {
	p := &Plan{
		Prefix:  a.Prefix,
		R:       s.R,
		Rounds:  make([][]Step, s.R),
		Between: make([][]sim.Command, s.R+1),
	}
	c := &compiler{a: a, s: s, p: p, sessions: make(map[Session]bool),
		prefix: sim.PrefixP(a.Prefix), ids: make([]topology.NodeID, a.Graph.NumNodes())}
	for i := range c.ids {
		c.ids[i] = topology.NodeID(i)
	}

	// Deterministic node order.
	nodes := append([]topology.NodeID(nil), a.Switching...)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })

	for _, n := range nodes {
		if err := c.compileNode(n); err != nil {
			return nil, err
		}
	}
	c.compileEquivalentSwitches()
	if err := c.placeOriginals(originals); err != nil {
		return nil, err
	}
	c.compileCleanup(nodes)
	return p, nil
}

type compiler struct {
	a        *analyzer.Analysis
	s        *scheduler.NodeSchedule
	p        *Plan
	sessions map[Session]bool
	// prefix and ids are what the weight entries' matches point to, one
	// copy shared by every entry of the plan: the prefix and each node ID.
	prefix *bgp.Prefix
	ids    []topology.NodeID
}

// addStep places a step: round 0 → setup, rounds 1..R → update phase,
// round R+1 → cleanup.
func (c *compiler) addStep(round int, st Step) {
	switch {
	case round <= 0:
		c.p.Setup = append(c.p.Setup, st)
	case round <= c.p.R:
		c.p.Rounds[round-1] = append(c.p.Rounds[round-1], st)
	default:
		c.p.Cleanup = append(c.p.Cleanup, st)
	}
}

// ensureTempSession records (and emits a setup step for) a temporary
// session between n and egress. Sessions that already exist in the initial
// configuration are reused as-is (and never torn down in cleanup).
func (c *compiler) ensureTempSession(n, egress topology.NodeID) {
	if n == egress || c.a.SessionExists(n, egress) {
		return
	}
	key := Session{A: min(n, egress), B: max(n, egress)}
	if c.sessions[key] {
		return
	}
	c.sessions[key] = true
	c.p.TempSessions = append(c.p.TempSessions, key)
	c.p.Setup = append(c.p.Setup, Step{
		Command: sim.OpenSession(n, egress, bgp.IBGPPeer,
			fmt.Sprintf("establish temporary iBGP session n%d–n%d", int(n), int(egress))),
		// The session must deliver the egress's current best route.
		Post: nil,
	})
}

// weightEntry returns a command installing an ingress route-map entry at n
// matching (neighbor=from, egress) with the given weight.
func (c *compiler) weightEntry(n, from, egress topology.NodeID, order, weight int, what string) sim.Command {
	return sim.SetIngressEntry(n, from, sim.Entry{
		Order:  orderFor(order, *c.prefix),
		Match:  sim.Match{Prefix: c.prefix, Neighbor: &c.ids[from], Egress: &c.ids[egress]},
		Action: sim.Action{SetWeight: sim.IntP(weight)},
	}, fmt.Sprintf("n%d: prefer %s (weight %d on routes from n%d with egress n%d)",
		int(n), what, weight, int(from), int(egress)))
}

// compileNode applies the Table 1 rules for one switching node.
func (c *compiler) compileNode(n topology.NodeID) error {
	t, ok := c.s.Tuples[n]
	if !ok {
		return fmt.Errorf("plan: switching node %d missing from schedule", n)
	}
	eOld := c.a.POld[n].Egress
	eNew := c.a.PNew[n].Egress

	// Setup: pin the old route from m_old so no later command or
	// withdrawal can steal the selection prematurely (§5 setup phase).
	// When r_old = 0 the temporary old-egress session takes over already
	// during setup, so the pin would immediately be overridden — skip it.
	mOld := c.s.MOld[n]
	if mOld == topology.None && c.a.ExtProviderOld[n] {
		mOld = c.a.POld[n].External
	}
	if mOld != topology.None && t.Old >= 1 {
		c.addStep(0, Step{
			Command: c.weightEntry(n, mOld, eOld, orderPinOld, WeightPinOld,
				fmt.Sprintf("its old route from n%d", int(mOld))),
			Post: []Condition{{Kind: CondSelects, Node: n, Egress: eOld, From: mOld}},
		})
	}

	// Table 1, temp old-egress session: rounds (r_old, r_nh].
	if t.Old < t.NH {
		c.ensureTempSession(n, eOld)
		c.addStep(t.Old, Step{
			Command: c.weightEntry(n, eOld, eOld, orderTempOld, WeightTempOld,
				fmt.Sprintf("the temp route from old egress n%d", int(eOld))),
			Pre:  []Condition{{Kind: CondKnows, Node: n, Egress: eOld, From: eOld}},
			Post: []Condition{{Kind: CondSelects, Node: n, Egress: eOld, From: eOld}},
		})
	}

	// Table 1, temp new-egress session: rounds (r_nh, r_new].
	if t.NH < t.New {
		c.ensureTempSession(n, eNew)
		c.addStep(t.NH, Step{
			Command: c.weightEntry(n, eNew, eNew, orderTempNew, WeightTempNew,
				fmt.Sprintf("the temp route from new egress n%d", int(eNew))),
			Pre:  []Condition{{Kind: CondKnows, Node: n, Egress: eNew, From: eNew}},
			Post: []Condition{{Kind: CondSelects, Node: n, Egress: eNew, From: eNew}},
		})
	}

	// Table 1, final preference: round r_new (or cleanup when r_new=R+1),
	// switching to Pnew(n) from m_new. When r_nh = r_new this is also the
	// next-hop change.
	mNew := c.s.MNew[n]
	if mNew == topology.None && c.a.ExtProviderNew[n] {
		mNew = c.a.PNew[n].External
	}
	if mNew == topology.None && t.New <= c.p.R {
		return fmt.Errorf("plan: node %d has no new-route provider for round %d", n, t.New)
	}
	if mNew != topology.None {
		c.addStep(t.New, Step{
			Command: c.weightEntry(n, mNew, eNew, orderNew, WeightNew,
				fmt.Sprintf("its new route from n%d", int(mNew))),
			Pre:  []Condition{{Kind: CondKnows, Node: n, Egress: eNew, From: mNew}},
			Post: []Condition{{Kind: CondSelects, Node: n, Egress: eNew, From: mNew}},
		})
	}
	return nil
}

// compileEquivalentSwitches pins nodes that only swap between equivalent
// routes (§3: the forwarding state is unaffected, so the swap happens
// outside the update phase). The pin must target a provider that advertises
// the route both now and in the final state — the final provider may not
// announce it yet during setup. If no stable provider exists the node is
// left unpinned: any flap stays within forwarding-equivalent routes.
func (c *compiler) compileEquivalentSwitches() {
	for _, n := range c.a.EquivalentSwitch {
		inNew := make(map[topology.NodeID]bool, len(c.a.DNew[n]))
		for _, m := range c.a.DNew[n] {
			inNew[m] = true
		}
		pin := topology.None
		for _, m := range c.a.DOld[n] {
			if !inNew[m] {
				continue
			}
			if pin == topology.None || m == c.a.PNew[n].Pre() {
				pin = m
			}
		}
		if pin == topology.None {
			continue
		}
		egress := c.a.PNew[n].Egress
		c.addStep(0, Step{
			Command: c.weightEntry(n, pin, egress, orderPinOld, WeightPinOld,
				fmt.Sprintf("its stable equivalent route from n%d", int(pin))),
			Pre:  []Condition{{Kind: CondKnows, Node: n, Egress: egress, From: pin}},
			Post: []Condition{{Kind: CondSelects, Node: n, Egress: egress, From: pin}},
		})
	}
}

// placeOriginals interleaves the original reconfiguration commands (§5):
// after r_nh for route-denying commands, before r_nh otherwise.
func (c *compiler) placeOriginals(originals []sim.Command) error {
	c.p.OriginalSlots = make(map[int]int, len(originals))
	for idx, cmd := range originals {
		slot := 0
		if t, ok := c.s.Tuples[cmd.Node]; ok {
			if cmd.DeniesOld {
				slot = t.NH
			} else {
				slot = t.NH - 1
			}
		} else if cmd.DeniesOld {
			slot = c.p.R
		}
		if slot < 0 {
			slot = 0
		}
		if slot > c.p.R {
			slot = c.p.R
		}
		c.p.Between[slot] = append(c.p.Between[slot], cmd)
		c.p.OriginalSlots[idx] = slot
	}
	return nil
}

// compileCleanup removes every temporary route-map entry and session,
// restoring the (now final) configuration's natural preferences.
func (c *compiler) compileCleanup(nodes []topology.NodeID) {
	cleanupOrders := []int{
		orderFor(orderPinOld, c.a.Prefix), orderFor(orderTempOld, c.a.Prefix),
		orderFor(orderTempNew, c.a.Prefix), orderFor(orderNew, c.a.Prefix),
	}
	all := append([]topology.NodeID(nil), nodes...)
	all = append(all, c.a.EquivalentSwitch...)
	for _, n := range all {
		c.p.Cleanup = append(c.p.Cleanup, Step{
			Command: sim.SweepIngressOrders(n, cleanupOrders,
				fmt.Sprintf("n%d: remove temporary route-map entries", int(n))),
			// External events may legitimately change the post-cleanup
			// best route (Fig. 11), so only route presence is asserted.
			Post: []Condition{{Kind: CondHasRoute, Node: n, Egress: topology.None, From: topology.None}},
		})
	}
	for _, sess := range c.p.TempSessions {
		c.p.Cleanup = append(c.p.Cleanup, Step{
			Command: sim.CloseSession(sess.A, sess.B,
				fmt.Sprintf("remove temporary session n%d–n%d", int(sess.A), int(sess.B))),
		})
	}
}
