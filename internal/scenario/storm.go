package scenario

import (
	"fmt"

	"chameleon/internal/bgp"
	"chameleon/internal/obs"
	"chameleon/internal/sim"
	"chameleon/internal/topology"
)

// StormConfig parameterizes a prefix-scale announcement storm: the
// deployment pattern of §7-style subscriber aggregation where a border
// router receives tens of thousands of routes in one burst.
type StormConfig struct {
	// Prefixes is the number of distinct destinations announced.
	Prefixes int
	// Seed drives message jitter; storms default to zero jitter so batched
	// and route-by-route injection execute the identical schedule.
	Seed uint64
	// Batched selects batch injection (one message per session carrying
	// the full storm) over route-by-route injection.
	Batched bool
	// Recorder, when non-nil, is attached to the network before injection,
	// so convergence counters (events, messages) attribute to the build.
	Recorder *obs.Recorder
}

// stormRouters is the size of a storm's iBGP full mesh.
const stormRouters = 4

// Storm is a converged prefix-scale network: a chain-linked iBGP full mesh
// whose border router learned every prefix from one external peer.
// Forwarding-trace recording is disabled — at 100k prefixes, traces (not
// tables) would dominate memory.
type Storm struct {
	Net      *sim.Network
	Graph    *topology.Graph
	Border   topology.NodeID
	Ext      topology.NodeID
	Prefixes []bgp.Prefix
}

// BuildStorm wires the topology and sessions, injects the storm, and runs
// the network to convergence.
func BuildStorm(cfg StormConfig) (*Storm, error) {
	if cfg.Prefixes <= 0 {
		return nil, fmt.Errorf("scenario: storm needs at least one prefix")
	}
	g := topology.New(fmt.Sprintf("Storm-%dp-%dr", cfg.Prefixes, stormRouters))
	routers := make([]topology.NodeID, stormRouters)
	for i := range routers {
		routers[i] = g.AddRouter(fmt.Sprintf("r%d", i))
		if i > 0 {
			g.AddLink(routers[i-1], routers[i], 1)
		}
	}
	ext := g.AddExternal("ext", 65001)
	g.AddLink(ext, routers[0], 1)

	opts := sim.DefaultOptions(cfg.Seed)
	opts.Jitter = 0
	opts.NoTrace = true
	net := sim.New(g, opts)
	net.SetRecorder(cfg.Recorder)
	for i, a := range routers {
		for _, b := range routers[i+1:] {
			net.SetSession(a, b, bgp.IBGPPeer)
		}
	}
	net.SetSession(routers[0], ext, bgp.EBGP)

	prefixes := make([]bgp.Prefix, cfg.Prefixes)
	for i := range prefixes {
		prefixes[i] = bgp.Prefix(i)
	}
	if cfg.Batched {
		anns := make([]sim.Announcement, cfg.Prefixes)
		for i := range anns {
			anns[i] = sim.Announcement{Prefix: prefixes[i], ASPathLen: 2}
		}
		net.InjectExternalRoutes(ext, anns)
	} else {
		for _, p := range prefixes {
			net.InjectExternalRoute(ext, sim.Announcement{Prefix: p, ASPathLen: 2})
		}
	}
	net.Run()
	return &Storm{
		Net:      net,
		Graph:    g,
		Border:   routers[0],
		Ext:      ext,
		Prefixes: prefixes,
	}, nil
}
