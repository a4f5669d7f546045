// Package topology models the physical network graph on which BGP and the
// IGP operate: internal routers, external (eBGP) neighbors, and weighted
// point-to-point links with propagation delays.
//
// The package also embeds a corpus of evaluation topologies mirroring the
// Topology Zoo dataset used in the paper (see zoo.go) and the real Abilene
// backbone used by the case study (see abilene.go).
package topology

import (
	"fmt"
	"sort"
	"time"
)

// NodeID identifies a node (internal router or external network) in a Graph.
// IDs are dense indices assigned in insertion order.
type NodeID int

// None is the sentinel for "no node", used e.g. for absent next hops.
const None NodeID = -1

// Node is a single vertex of the network graph.
type Node struct {
	ID       NodeID
	Name     string
	External bool   // true for eBGP neighbors outside the network under control
	ASN      uint32 // autonomous system number (internal nodes share the local ASN)
}

// Link is an undirected weighted edge between two nodes. Weight is the IGP
// metric; Delay is the one-way propagation delay used by the simulator.
type Link struct {
	A, B   NodeID
	Weight float64
	Delay  time.Duration
}

// LocalASN is the autonomous system number used for all internal routers.
const LocalASN uint32 = 65000

// Graph is the network under reconfiguration. It is a plain data structure:
// mutation is only supported through the Add* methods, and all read accessors
// are safe for concurrent use once construction has finished.
type Graph struct {
	Name  string
	nodes []Node
	links []Link
	adj   [][]int // node -> indices into links
	index map[string]NodeID
}

// New returns an empty graph with the given name.
func New(name string) *Graph {
	return &Graph{Name: name, index: make(map[string]NodeID)}
}

// AddRouter adds an internal router and returns its ID. Adding a duplicate
// name panics: topology construction errors are programming errors.
func (g *Graph) AddRouter(name string) NodeID {
	return g.add(Node{Name: name, External: false, ASN: LocalASN})
}

// AddExternal adds an external eBGP neighbor belonging to the given AS.
func (g *Graph) AddExternal(name string, asn uint32) NodeID {
	return g.add(Node{Name: name, External: true, ASN: asn})
}

func (g *Graph) add(n Node) NodeID {
	if _, dup := g.index[n.Name]; dup {
		panic(fmt.Sprintf("topology: duplicate node name %q", n.Name))
	}
	n.ID = NodeID(len(g.nodes))
	g.nodes = append(g.nodes, n)
	g.adj = append(g.adj, nil)
	g.index[n.Name] = n.ID
	return n.ID
}

// AddLink connects a and b with the given IGP weight and a delay derived
// from the weight (1 ms per weight unit) unless overridden via AddLinkDelay.
func (g *Graph) AddLink(a, b NodeID, weight float64) {
	g.AddLinkDelay(a, b, weight, time.Duration(weight)*time.Millisecond)
}

// AddLinkDelay connects a and b with an explicit propagation delay.
func (g *Graph) AddLinkDelay(a, b NodeID, weight float64, delay time.Duration) {
	if !g.valid(a) || !g.valid(b) {
		panic(fmt.Sprintf("topology: AddLink with invalid node (%d, %d)", a, b))
	}
	if a == b {
		panic("topology: self-loop links are not allowed")
	}
	idx := len(g.links)
	g.links = append(g.links, Link{A: a, B: b, Weight: weight, Delay: delay})
	g.adj[a] = append(g.adj[a], idx)
	g.adj[b] = append(g.adj[b], idx)
}

func (g *Graph) valid(id NodeID) bool { return id >= 0 && int(id) < len(g.nodes) }

// NumNodes returns the total node count (internal + external).
func (g *Graph) NumNodes() int { return len(g.nodes) }

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) Node { return g.nodes[id] }

// Nodes returns all nodes in ID order. The returned slice must not be
// modified.
func (g *Graph) Nodes() []Node { return g.nodes }

// Links returns all links. The returned slice must not be modified.
func (g *Graph) Links() []Link { return g.links }

// NodeByName looks a node up by name.
func (g *Graph) NodeByName(name string) (NodeID, bool) {
	id, ok := g.index[name]
	return id, ok
}

// MustNode looks a node up by name and panics if absent.
func (g *Graph) MustNode(name string) NodeID {
	id, ok := g.index[name]
	if !ok {
		panic(fmt.Sprintf("topology: unknown node %q", name))
	}
	return id
}

// Internal returns the IDs of all internal routers, in ID order.
func (g *Graph) Internal() []NodeID {
	var out []NodeID
	for _, n := range g.nodes {
		if !n.External {
			out = append(out, n.ID)
		}
	}
	return out
}

// Externals returns the IDs of all external networks, in ID order.
func (g *Graph) Externals() []NodeID {
	var out []NodeID
	for _, n := range g.nodes {
		if n.External {
			out = append(out, n.ID)
		}
	}
	return out
}

// Neighbors returns the IDs of the nodes adjacent to n, sorted by ID.
func (g *Graph) Neighbors(n NodeID) []NodeID {
	var out []NodeID
	for _, li := range g.adj[n] {
		l := g.links[li]
		if l.A == n {
			out = append(out, l.B)
		} else {
			out = append(out, l.A)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LinkBetween returns the first link joining a and b, if any.
func (g *Graph) LinkBetween(a, b NodeID) (Link, bool) {
	for _, li := range g.adj[a] {
		l := g.links[li]
		if (l.A == a && l.B == b) || (l.A == b && l.B == a) {
			return l, true
		}
	}
	return Link{}, false
}

// IncidentLinks returns the indices (into Links()) of the links touching n.
func (g *Graph) IncidentLinks(n NodeID) []int { return g.adj[n] }

// String renders a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("%s: %d nodes (%d internal), %d links",
		g.Name, len(g.nodes), len(g.Internal()), len(g.links))
}
