package sim

import (
	"chameleon/internal/bgp"
	"chameleon/internal/topology"
)

// Command is an atomic configuration change targeting one router — the unit
// the paper's compiler (§5) interleaves with its temporary commands. Apply
// mutates the network immediately; the runtime controller is responsible
// for modeling router command latency before invoking it.
//
// Every configuration change the code makes is built by one of the
// constructors below (SetIngressEntry, AddIngressEntry,
// RemoveIngressOrders, SweepIngressOrders, OpenSession, CloseSession),
// which derive Apply and Verify from the same arguments: the commands are
// idempotent, and the readback checks exactly the change the apply makes.
type Command struct {
	// Node is the router whose configuration the command changes.
	Node topology.NodeID
	// Description is a human-readable rendering for plans and logs.
	Description string
	// DeniesOld reports whether the command makes Node deny (lose) its
	// initial route; per §5 such commands run after r_nh, others before.
	DeniesOld bool
	// Apply performs the change.
	Apply func(*Network)
	// Verify, when set, checks whether the command's configuration effect
	// is present on the network — the controller's "show running-config"
	// readback. The self-healing executor uses it to confirm commands
	// whose acknowledgment was lost instead of blindly assuming failure.
	Verify func(*Network) bool
}

func (c Command) String() string { return c.Description }

// SetIngressEntry returns a command that puts e at its order in node's
// ingress route map towards neighbor, replacing whatever sat at that
// order, so a second push changes nothing. Its readback holds when an
// entry equal to e (pointees compared) sits at e.Order. The command keeps
// e's pointers: the caller must not write through them afterwards.
func SetIngressEntry(node, neighbor topology.NodeID, e Entry, desc string) Command {
	s := &ingressEntry{node, neighbor, e, true}
	return Command{Node: node, Description: desc, Apply: s.apply, Verify: s.verify}
}

// AddIngressEntry returns a command that adds e to node's ingress route map
// towards neighbor beside any entries already at its order, unless an entry
// equal to e (pointees compared) is there already, so a second push changes
// nothing. Its readback holds when such an entry is present. The command
// keeps e's pointers: the caller must not write through them afterwards.
func AddIngressEntry(node, neighbor topology.NodeID, e Entry, desc string) Command {
	s := &ingressEntry{node, neighbor, e, false}
	return Command{Node: node, Description: desc, Apply: s.apply, Verify: s.verify}
}

// ingressEntry is SetIngressEntry's and AddIngressEntry's change: one
// allocation that both method values, Apply and Verify, point to. replace
// says whether the entry displaces the others at its order.
type ingressEntry struct {
	node, neighbor topology.NodeID
	e              Entry
	replace        bool
}

func (s *ingressEntry) apply(net *Network) {
	if !s.replace && s.verify(net) {
		return
	}
	net.UpdateRouteMap(s.node, s.neighbor, In, func(rm *RouteMap) {
		if s.replace {
			rm.Remove(s.e.Order)
		}
		rm.Add(s.e)
	})
}

func (s *ingressEntry) verify(net *Network) bool {
	return net.RouteMapOf(s.node, s.neighbor, In).contains(&s.e)
}

// RemoveIngressOrders returns a command that deletes every entry at the
// given orders from node's ingress route map towards neighbor. Its
// readback holds when none of the orders is present there.
func RemoveIngressOrders(node, neighbor topology.NodeID, orders []int, desc string) Command {
	return Command{
		Node: node, Description: desc,
		Apply: func(net *Network) {
			net.UpdateRouteMap(node, neighbor, In, func(rm *RouteMap) { rm.removeAll(orders) })
		},
		Verify: func(net *Network) bool {
			return !net.RouteMapOf(node, neighbor, In).hasAny(orders)
		},
	}
}

// SweepIngressOrders returns a command that deletes every entry at the
// given orders from node's ingress route map towards each neighbor it has
// a session with; a map holding none of them is left alone, so the node
// re-decides only for neighbors whose map changed. Its readback holds when
// none of the orders is present in any of those maps.
func SweepIngressOrders(node topology.NodeID, orders []int, desc string) Command {
	return Command{
		Node: node, Description: desc,
		Apply: func(net *Network) {
			for _, nb := range net.Sessions(node) {
				if net.RouteMapOf(node, nb, In).hasAny(orders) {
					net.UpdateRouteMap(node, nb, In, func(rm *RouteMap) { rm.removeAll(orders) })
				}
			}
		},
		Verify: func(net *Network) bool {
			clean := true
			net.RangeSessions(node, func(nb topology.NodeID) bool {
				clean = !net.RouteMapOf(node, nb, In).hasAny(orders)
				return clean
			})
			return clean
		},
	}
}

// OpenSession returns a command that establishes a session between a and
// b, a's role towards b being kindAtA, unless one is already up. Its
// readback holds when the session is up.
func OpenSession(a, b topology.NodeID, kindAtA bgp.SessionKind, desc string) Command {
	return Command{
		Node: a, Description: desc,
		Apply: func(net *Network) {
			if _, up := net.HasSession(a, b); !up {
				net.SetSession(a, b, kindAtA)
			}
		},
		Verify: func(net *Network) bool {
			_, up := net.HasSession(a, b)
			return up
		},
	}
}

// CloseSession returns a command that tears the session between a and b
// down. Its readback holds when the session is gone.
func CloseSession(a, b topology.NodeID, desc string) Command {
	return Command{
		Node: a, Description: desc,
		Apply: func(net *Network) { net.RemoveSession(a, b) },
		Verify: func(net *Network) bool {
			_, up := net.HasSession(a, b)
			return !up
		},
	}
}
