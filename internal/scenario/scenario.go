// Package scenario constructs the reconfiguration scenarios used throughout
// the paper: the six-router running example (Fig. 3), and the evaluation
// scenario of §6/§7 (three egress routers, three route reflectors, the most
// preferred egress denying its route so that every router must change its
// selection).
package scenario

import (
	"fmt"
	"math/rand/v2"

	"chameleon/internal/bgp"
	"chameleon/internal/obs"
	"chameleon/internal/sim"
	"chameleon/internal/topology"
)

// Scenario bundles a converged network with the reconfiguration to perform
// on it.
type Scenario struct {
	Name  string
	Net   *sim.Network
	Graph *topology.Graph

	// Prefix is the destination under reconfiguration (one equivalence
	// class; §6 uses 1024 identical prefixes, which collapse to one).
	Prefix bgp.Prefix

	// Prefixes lists every destination under reconfiguration when the
	// scenario carries more than one (Config.ExtraPrefixes); Prefix is
	// always its first entry. Nil means the single destination Prefix.
	// Planning partitions this list into §3 equivalence classes.
	Prefixes []bgp.Prefix

	// E1 is the initially preferred egress; E2, E3 the alternatives.
	E1, E2, E3 topology.NodeID
	// Ext are the external networks peering with E1..E3 (index-aligned).
	Ext []topology.NodeID
	// E4/Ext4 is the spare egress used by the Fig. 11b external-event
	// experiment; only set when WithSpareEgress was used.
	E4, Ext4 topology.NodeID

	// RRs are the route reflectors.
	RRs []topology.NodeID

	// Commands is the original reconfiguration (§5 "original commands").
	Commands []sim.Command

	// Undo is index-aligned with Commands: Undo[i] reverts Commands[i].
	// A supervisor rolling back to the initial configuration applies the
	// undos of every possibly-applied original in reverse order; undo
	// commands are idempotent, so undoing a command that never applied is
	// safe.
	Undo []sim.Command

	Seed uint64
}

// RunningExample builds the Fig. 3 network: six routers, n2 and n5 route
// reflectors, a route ρ1 at n1 with local-pref 200 and ρ6 at n6 with 100.
// The reconfiguration lowers ρ1's local-pref to 50, shifting the whole
// network from ρ1 to ρ6.
func RunningExample() *Scenario {
	g := topology.New("RunningExample")
	n := make([]topology.NodeID, 7) // 1-indexed as in the paper
	for i := 1; i <= 6; i++ {
		n[i] = g.AddRouter(fmt.Sprintf("n%d", i))
	}
	ext1 := g.AddExternal("ext1", 65101)
	ext6 := g.AddExternal("ext6", 65106)
	// Physical topology: two rows as drawn in Fig. 3.
	g.AddLink(n[1], n[2], 1)
	g.AddLink(n[2], n[3], 1)
	g.AddLink(n[1], n[4], 1)
	g.AddLink(n[2], n[5], 1)
	g.AddLink(n[3], n[6], 1)
	g.AddLink(n[4], n[5], 1)
	g.AddLink(n[5], n[6], 1)
	g.AddLink(ext1, n[1], 1)
	g.AddLink(ext6, n[6], 1)

	net := sim.New(g, sim.DefaultOptions(1))
	// iBGP: n2 and n5 reflect for clients n1, n3, n4, n6; n2-n5 peer.
	for _, rr := range []topology.NodeID{n[2], n[5]} {
		for _, c := range []topology.NodeID{n[1], n[3], n[4], n[6]} {
			net.SetSession(rr, c, bgp.IBGPClient)
		}
	}
	net.SetSession(n[2], n[5], bgp.IBGPPeer)
	net.SetSession(n[1], ext1, bgp.EBGP)
	net.SetSession(n[6], ext6, bgp.EBGP)

	// ρ1 has local-pref 200 via an ingress route map at n1.
	net.UpdateRouteMap(n[1], ext1, sim.In, func(rm *sim.RouteMap) {
		rm.Add(sim.Entry{Order: 10, Action: sim.Action{SetLocalPref: sim.U32P(200)}})
	})
	const prefix bgp.Prefix = 0
	net.InjectExternalRoute(ext1, sim.Announcement{Prefix: prefix, ASPathLen: 2})
	net.InjectExternalRoute(ext6, sim.Announcement{Prefix: prefix, ASPathLen: 2})
	net.Run()

	setLP := func(lp uint32, desc string) sim.Command {
		return sim.SetIngressEntry(n[1], ext1,
			sim.Entry{Order: 10, Action: sim.Action{SetLocalPref: sim.U32P(lp)}}, desc)
	}
	cmd := setLP(50, "n1: set local-pref of routes from ext1 to 50")
	undo := setLP(200, "n1: restore local-pref of routes from ext1 to 200")
	return &Scenario{
		Name: "RunningExample", Net: net, Graph: g, Prefix: prefix,
		E1: n[1], E2: n[6], E3: n[6],
		Ext:      []topology.NodeID{ext1, ext6},
		RRs:      []topology.NodeID{n[2], n[5]},
		Commands: []sim.Command{cmd},
		Undo:     []sim.Command{undo},
		Seed:     1,
	}
}

// Config tweaks CaseStudy construction.
type Config struct {
	// Seed selects the random egresses/reflectors and drives jitter.
	Seed uint64
	// SpareEgress additionally wires a fourth, initially silent external
	// peer (for the Fig. 11b experiment).
	SpareEgress bool
	// RemoveSession makes the original command a session removal (§6)
	// instead of an ingress deny route-map (§7). Both force all routers
	// off e1; the session variant also tears state down.
	RemoveSession bool
	// ExtraPrefixes injects that many additional destinations beyond the
	// base prefix, cycling through three announcement patterns: one
	// identical to the base (collapsing into its equivalence class) and
	// two with different AS-path lengths at ext2/ext3 (forming distinct
	// classes whose final states steer all traffic to e2 or e3
	// respectively). Every pattern is announced by ext1 with the shortest
	// path, so the §6 deny command makes every class reconfigure. With
	// ExtraPrefixes ≥ 3 the scenario is guaranteed multi-class.
	ExtraPrefixes int
	// Recorder, when non-nil, is attached to the scenario network before
	// initial convergence, so substrate counters (sim events, BGP
	// messages, sessions) cover scenario construction too. A nil recorder
	// keeps construction unobserved, as before.
	Recorder *obs.Recorder
}

// CaseStudy builds the evaluation scenario of §6/§7 on the named corpus
// topology: three random egresses e1..e3 with external peers announcing the
// same destination, e1 preferred via a shorter AS path, three random route
// reflectors with every other router a client of all three, and the
// reconfiguration denying (or tearing down) e1's external route so that
// every router must change its selection.
func CaseStudy(name string, cfg Config) (*Scenario, error) {
	g, err := topology.Zoo(name)
	if err != nil {
		return nil, err
	}
	return CaseStudyOn(g, cfg)
}

// CaseStudyOn is CaseStudy over an arbitrary prebuilt topology.
func CaseStudyOn(g *topology.Graph, cfg Config) (*Scenario, error) {
	internal := g.Internal()
	// Three distinct egresses plus at least one reflector and one plain
	// client need five routers.
	if len(internal) < 5 {
		return nil, fmt.Errorf("scenario: topology %s too small (%d routers)", g.Name, len(internal))
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xa0761d6478bd642f))
	pickDistinct := func(k int) []topology.NodeID {
		perm := rng.Perm(len(internal))
		out := make([]topology.NodeID, k)
		for i := 0; i < k; i++ {
			out[i] = internal[perm[i]]
		}
		return out
	}
	egresses := pickDistinct(3)
	e1, e2, e3 := egresses[0], egresses[1], egresses[2]
	numRR := 3
	if len(internal) < 6 {
		numRR = 1
	}
	rrs := pickDistinct(numRR)

	exts := make([]topology.NodeID, 3)
	for i, e := range egresses {
		exts[i] = g.AddExternal(fmt.Sprintf("ext%d", i+1), uint32(65101+i))
		g.AddLink(exts[i], e, 1)
	}
	var e4, ext4 topology.NodeID = topology.None, topology.None
	if cfg.SpareEgress {
		e4 = internal[rng.IntN(len(internal))]
		ext4 = g.AddExternal("ext4", 65104)
		g.AddLink(ext4, e4, 1)
	}

	opts := sim.DefaultOptions(cfg.Seed)
	net := sim.New(g, opts)
	net.SetRecorder(cfg.Recorder)
	isRR := make(map[topology.NodeID]bool)
	for _, rr := range rrs {
		isRR[rr] = true
	}
	for i, a := range rrs {
		for _, b := range rrs[i+1:] {
			net.SetSession(a, b, bgp.IBGPPeer)
		}
	}
	for _, r := range internal {
		if isRR[r] {
			continue
		}
		for _, rr := range rrs {
			net.SetSession(rr, r, bgp.IBGPClient)
		}
	}
	for i, e := range egresses {
		net.SetSession(e, exts[i], bgp.EBGP)
	}
	if cfg.SpareEgress {
		net.SetSession(e4, ext4, bgp.EBGP)
	}

	// e1's routes win on AS-path length; e2/e3 tie and are split by IGP
	// cost (§6: "prefer e1 … decide between e2 and e3 on shortest IGP
	// path").
	const prefix bgp.Prefix = 0
	net.InjectExternalRoute(exts[0], sim.Announcement{Prefix: prefix, ASPathLen: 1})
	net.InjectExternalRoute(exts[1], sim.Announcement{Prefix: prefix, ASPathLen: 2})
	net.InjectExternalRoute(exts[2], sim.Announcement{Prefix: prefix, ASPathLen: 2})
	prefixes := []bgp.Prefix{prefix}
	for i := 1; i <= cfg.ExtraPrefixes; i++ {
		p := bgp.Prefix(i)
		// ext1 always announces the shortest path, so the deny command
		// forces every destination off e1; the ext2/ext3 path lengths cycle
		// through three patterns yielding up to three equivalence classes.
		l2, l3 := 2, 2
		switch i % 3 {
		case 2:
			l3 = 4 // final state steers everything to e2
		case 0:
			l2 = 4 // final state steers everything to e3
		}
		net.InjectExternalRoute(exts[0], sim.Announcement{Prefix: p, ASPathLen: 1})
		net.InjectExternalRoute(exts[1], sim.Announcement{Prefix: p, ASPathLen: l2})
		net.InjectExternalRoute(exts[2], sim.Announcement{Prefix: p, ASPathLen: l3})
		prefixes = append(prefixes, p)
	}
	net.Run()

	e1Name := g.Node(e1).Name
	var cmd, undo sim.Command
	if cfg.RemoveSession {
		cmd = sim.CloseSession(e1, exts[0], e1Name+": remove eBGP session to ext1")
		undo = sim.OpenSession(e1, exts[0], bgp.EBGP, e1Name+": restore eBGP session to ext1")
	} else {
		cmd = sim.SetIngressEntry(e1, exts[0], sim.Entry{Order: 5, Action: sim.Action{Deny: true}},
			e1Name+": route-map deny routes from ext1")
		undo = sim.RemoveIngressOrders(e1, exts[0], []int{5},
			e1Name+": remove route-map deny of routes from ext1")
	}
	cmd.DeniesOld = true

	s := &Scenario{
		Name: g.Name, Net: net, Graph: g, Prefix: prefix,
		E1: e1, E2: e2, E3: e3, Ext: exts, E4: e4, Ext4: ext4,
		RRs: rrs, Commands: []sim.Command{cmd}, Undo: []sim.Command{undo},
		Seed: cfg.Seed,
	}
	if cfg.ExtraPrefixes > 0 {
		s.Prefixes = prefixes
	}
	return s, nil
}

// AllPrefixes returns every destination under reconfiguration: Prefixes
// when set, else just Prefix.
func (s *Scenario) AllPrefixes() []bgp.Prefix {
	if len(s.Prefixes) > 0 {
		return s.Prefixes
	}
	return []bgp.Prefix{s.Prefix}
}

// Remaining derives the replan-from-intermediate-state scenario: the same
// topology and metadata, net (a live, possibly mid-reconfiguration network)
// as its network, and only the original commands whose slot in applied is
// false — exactly the reconfiguration still outstanding. applied is
// index-aligned with s.Commands; a short applied treats missing entries as
// not applied. Undo stays index-aligned with the remaining commands.
func (s *Scenario) Remaining(net *sim.Network, applied []bool) *Scenario {
	d := *s
	d.Net = net
	d.Commands = nil
	d.Undo = nil
	for i, cmd := range s.Commands {
		if i < len(applied) && applied[i] {
			continue
		}
		d.Commands = append(d.Commands, cmd)
		if i < len(s.Undo) {
			d.Undo = append(d.Undo, s.Undo[i])
		}
	}
	return &d
}

// FinalNetwork returns a converged clone of the scenario network with all
// original commands applied — the target state Pnew. The scenario's own
// network is left untouched.
func (s *Scenario) FinalNetwork() *sim.Network {
	c := s.Net.Clone()
	for _, cmd := range s.Commands {
		cmd.Apply(c)
	}
	c.Run()
	return c
}
