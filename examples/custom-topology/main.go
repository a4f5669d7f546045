// Custom-topology: build a network from scratch with the public API — your
// own routers, IGP weights, route reflectors and external peers — then plan
// a local-preference change exactly like the paper's Fig. 3 running
// example, and inspect the computed schedule tuple by tuple.
//
//	go run ./examples/custom-topology
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	chameleon "chameleon"
	"chameleon/internal/bgp"
	"chameleon/internal/scenario"
	"chameleon/internal/sim"
	"chameleon/internal/topology"
)

func main() {
	// A small dual-reflector network, built by hand.
	g := chameleon.NewGraph("custom")
	core1 := g.AddRouter("core1")
	core2 := g.AddRouter("core2")
	edgeA := g.AddRouter("edgeA")
	edgeB := g.AddRouter("edgeB")
	extA := g.AddExternal("peerA", 65001)
	extB := g.AddExternal("peerB", 65002)
	g.AddLink(core1, core2, 1)
	g.AddLink(core1, edgeA, 2)
	g.AddLink(core2, edgeB, 2)
	g.AddLink(edgeA, edgeB, 10)
	g.AddLink(extA, edgeA, 1)
	g.AddLink(extB, edgeB, 1)

	net := chameleon.NewNetwork(g, 42)
	// core1 and core2 reflect for the edges.
	net.SetSession(core1, edgeA, bgp.IBGPClient)
	net.SetSession(core1, edgeB, bgp.IBGPClient)
	net.SetSession(core2, edgeA, bgp.IBGPClient)
	net.SetSession(core2, edgeB, bgp.IBGPClient)
	net.SetSession(core1, core2, bgp.IBGPPeer)
	net.SetSession(edgeA, extA, bgp.EBGP)
	net.SetSession(edgeB, extB, bgp.EBGP)

	// peerA's route is preferred via local-pref 200.
	net.UpdateRouteMap(edgeA, extA, sim.In, func(rm *sim.RouteMap) {
		rm.Add(sim.Entry{Order: 10, Action: sim.Action{SetLocalPref: sim.U32P(200)}})
	})
	const prefix = 0
	net.InjectExternalRoute(extA, sim.Announcement{Prefix: prefix, ASPathLen: 3})
	net.InjectExternalRoute(extB, sim.Announcement{Prefix: prefix, ASPathLen: 3})
	net.Run()

	fmt.Println("initial forwarding:")
	show(g, net, prefix)

	// The reconfiguration: drop peerA's preference to 50, shifting all
	// traffic to peerB — the Fig. 3 pattern.
	cmd := sim.SetIngressEntry(edgeA, extA,
		sim.Entry{Order: 10, Action: sim.Action{SetLocalPref: sim.U32P(50)}},
		"edgeA: lower peerA local-pref to 50")
	s := &scenario.Scenario{
		Name: "custom", Net: net, Graph: g, Prefix: prefix,
		E1: edgeA, E2: edgeB, E3: edgeB,
		Ext:      []topology.NodeID{extA, extB},
		Commands: []sim.Command{cmd},
		Seed:     42,
	}

	sp, err := chameleon.ParseSpec(
		"G (reach(core1) && reach(core2) && reach(edgeA) && reach(edgeB))", g)
	if err != nil {
		log.Fatal(err)
	}
	rec, err := chameleon.PlanCtx(context.Background(), s, chameleon.PlanOptions{Spec: sp})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nschedule (R=%d):\n", rec.Schedule.R)
	var nodes []topology.NodeID
	for n := range rec.Schedule.Tuples {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, n := range nodes {
		t := rec.Schedule.Tuples[n]
		fmt.Printf("  %-8s r_old=%d r_nh=%d r_new=%d tempOld=%v tempNew=%v\n",
			g.Node(n).Name, t.Old, t.NH, t.New,
			rec.Schedule.TempOld(n), rec.Schedule.TempNew(n))
	}

	res, err := rec.ExecuteCtx(context.Background(), chameleon.ExecOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if err := rec.Verify(res); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nfinal forwarding (verified safe throughout):")
	show(g, net, prefix)
}

func show(g *chameleon.Graph, net *chameleon.Network, prefix chameleon.Prefix) {
	st := net.ForwardingState(prefix)
	for _, n := range g.Internal() {
		nh := "drop"
		switch {
		case st[n] == -2:
			nh = "external"
		case st[n] >= 0:
			nh = g.Node(st[n]).Name
		}
		fmt.Printf("  %-8s → %s\n", g.Node(n).Name, nh)
	}
}
