package sim_test

import (
	"testing"
	"time"

	"chameleon/internal/bgp"
	"chameleon/internal/scenario"
	"chameleon/internal/sim"
	"chameleon/internal/topology"
)

func TestEgressRouteMapDeny(t *testing.T) {
	// Deny n2's exports towards n3 (Out direction): n3 must use n5's copy.
	s := scenario.RunningExample()
	n2, n3, n5 := s.Graph.MustNode("n2"), s.Graph.MustNode("n3"), s.Graph.MustNode("n5")
	s.Net.UpdateRouteMap(n2, n3, sim.Out, func(rm *sim.RouteMap) {
		rm.Add(sim.Entry{Order: 1, Action: sim.Action{Deny: true}})
	})
	s.Net.Run()
	for _, r := range s.Net.Candidates(n3, s.Prefix) {
		if r.Pre() == n2 {
			t.Errorf("n3 still has a route from n2 despite egress deny: %v", r)
		}
	}
	best, ok := s.Net.Best(n3, s.Prefix)
	if !ok || best.Pre() != n5 {
		t.Errorf("n3 best = %v, want from n5", best)
	}
}

func TestRunUntilAdvancesClockOnly(t *testing.T) {
	s := scenario.RunningExample()
	fired := false
	s.Net.ScheduleAfter(10*time.Second, func(*sim.Network) { fired = true })
	s.Net.RunUntil(s.Net.Now() + 5*time.Second)
	if fired {
		t.Error("future event ran too early")
	}
	s.Net.RunUntil(s.Net.Now() + 6*time.Second)
	if !fired {
		t.Error("event did not run at its time")
	}
}

func TestScheduleAtPastClamped(t *testing.T) {
	s := scenario.RunningExample()
	ran := false
	s.Net.ScheduleAt(0, func(*sim.Network) { ran = true }) // in the past
	s.Net.Run()
	if !ran {
		t.Error("past-scheduled event never ran")
	}
}

func TestMEDTieBreak(t *testing.T) {
	// Two equivalent announcements differing only in MED: lower wins.
	s := scenario.RunningExample()
	ext1, ext6 := s.Graph.MustNode("ext1"), s.Graph.MustNode("ext6")
	s.Net.InjectExternalRoute(ext1, sim.Announcement{Prefix: 9, ASPathLen: 2, MED: 50})
	s.Net.InjectExternalRoute(ext6, sim.Announcement{Prefix: 9, ASPathLen: 2, MED: 10})
	s.Net.Run()
	// At n3 (equidistant-ish client), the MED-10 route must win wherever
	// both are visible with equal local-pref... note n1's lp-200 map is
	// prefix-agnostic, so ρ from ext1 has lp 200 and wins regardless; use
	// n1 itself which sees its own eBGP route (lp 200).
	n1 := s.Graph.MustNode("n1")
	best, ok := s.Net.Best(n1, 9)
	if !ok {
		t.Fatal("n1 has no route for prefix 9")
	}
	if best.Egress != n1 {
		t.Errorf("n1 best egress %d (lp 200 should win locally)", best.Egress)
	}
	// Remove the lp map: now MED decides between equal-lp routes at n1
	// only if both routes share (weight, lp, aspath); n1 sees ext1 direct
	// (ebgp) and ρ6 via RRs (ibgp): eBGP wins before MED. So check a
	// route pair at the same node with both iBGP: n4 receives only the
	// network best; this scenario can't isolate MED there. Assert instead
	// that the comparator honored MED during RR selection: the RRs chose
	// the ext6 route (MED 10) once lp is equalized.
	s.Net.UpdateRouteMap(n1, ext1, sim.In, func(rm *sim.RouteMap) { rm.Remove(10) })
	s.Net.Run()
	n2 := s.Graph.MustNode("n2")
	best2, ok := s.Net.Best(n2, 9)
	if !ok {
		t.Fatal("n2 has no route")
	}
	if best2.MED != 10 {
		t.Errorf("n2 selected MED %d, want the MED-10 route", best2.MED)
	}
}

func TestSessionKindChangeRefreshesExports(t *testing.T) {
	// Turning a client into a plain peer restricts reflection: n5
	// receives client routes from n2 only while n2 treats the origin as a
	// client.
	s := scenario.RunningExample()
	n2, n5 := s.Graph.MustNode("n2"), s.Graph.MustNode("n5")
	// Initially n2 and n5 are peers; n2 reflects client routes to n5.
	found := false
	for _, r := range s.Net.Candidates(n5, s.Prefix) {
		if r.Pre() == n2 {
			found = true
		}
	}
	if !found {
		t.Fatal("precondition: n5 should have a reflected route from n2")
	}
	// Demote n1 from n2's client to plain peer: n2 may no longer reflect
	// n1's routes to n5 (non-client → non-client).
	n1 := s.Graph.MustNode("n1")
	s.Net.SetSession(n2, n1, bgp.IBGPPeer)
	s.Net.Run()
	for _, r := range s.Net.Candidates(n5, s.Prefix) {
		if r.Pre() == n2 && r.Egress == n1 {
			t.Errorf("n2 still reflects the non-client route to peer n5: %v", r)
		}
	}
}

func TestPendingAndConverged(t *testing.T) {
	s := scenario.RunningExample()
	if !s.Net.Converged() || s.Net.Pending() != 0 {
		t.Fatal("fixture should be converged")
	}
	// A timer alone is not BGP work: the network stays converged.
	s.Net.ScheduleAfter(time.Second, func(*sim.Network) {})
	if !s.Net.Converged() || s.Net.Pending() != 1 {
		t.Errorf("after a timer: Converged = %v, Pending = %d, want true and 1", s.Net.Converged(), s.Net.Pending())
	}
	// A message in flight is.
	s.Net.InjectExternalRoute(s.Graph.MustNode("ext1"), sim.Announcement{Prefix: s.Prefix})
	if s.Net.Converged() {
		t.Error("a message in flight should mean not converged")
	}
	s.Net.Run()
	if !s.Net.Converged() || s.Net.Pending() != 0 {
		t.Error("Run must drain the queue")
	}
}

// TestInjectOnInternalPanics: only an external network originates routes.
// All four entry points refuse an internal node — a withdrawal that went
// through told every neighbour to drop a route the router still selects.
func TestInjectOnInternalPanics(t *testing.T) {
	for name, call := range map[string]func(*sim.Network, topology.NodeID){
		"InjectExternalRoute": func(n *sim.Network, at topology.NodeID) {
			n.InjectExternalRoute(at, sim.Announcement{Prefix: 3})
		},
		"InjectExternalRoutes": func(n *sim.Network, at topology.NodeID) {
			n.InjectExternalRoutes(at, []sim.Announcement{{Prefix: 3}})
		},
		"WithdrawExternalRoute": func(n *sim.Network, at topology.NodeID) {
			n.WithdrawExternalRoute(at, 1)
		},
		"WithdrawExternalRoutes": func(n *sim.Network, at topology.NodeID) {
			n.WithdrawExternalRoutes(at, []bgp.Prefix{1})
		},
	} {
		t.Run(name, func(t *testing.T) {
			s := scenario.RunningExample()
			before := s.Net.Pending()
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
				if got := s.Net.Pending(); got != before {
					t.Errorf("%d messages sent before the panic", got-before)
				}
			}()
			call(s.Net, s.Graph.MustNode("n1"))
		})
	}
}

func TestRouteMapStringAndLen(t *testing.T) {
	var rm sim.RouteMap
	if rm.Len() != 0 || (&rm).String() != "(empty)" {
		t.Errorf("empty map: len=%d str=%q", rm.Len(), (&rm).String())
	}
	rm.Add(sim.Entry{Order: 5, Action: sim.Action{Deny: true}})
	rm.Add(sim.Entry{Order: 2, Action: sim.Action{SetWeight: sim.IntP(7), SetLocalPref: sim.U32P(300)}})
	if rm.Len() != 2 {
		t.Errorf("len = %d", rm.Len())
	}
	// Entries stay sorted by order, and an entry joins those of equal order
	// after them: the first match wins, so that order decides.
	rm.Add(sim.Entry{Order: 5, Action: sim.Action{SetWeight: sim.IntP(1)}})
	rm.Add(sim.Entry{Order: 9, Action: sim.Action{SetLocalPref: sim.U32P(100)}})
	rm.Add(sim.Entry{Order: 2, Action: sim.Action{SetWeight: sim.IntP(3)}})
	want := "2:permit weight=7 lp=300; 2:permit weight=3; 5:deny; 5:permit weight=1; 9:permit lp=100"
	if str := rm.String(); str != want {
		t.Errorf("String = %q, want %q", str, want)
	}
	if removed := rm.Remove(5); removed != 2 {
		t.Errorf("Remove(5) = %d", removed)
	}
	if removed := rm.Remove(99); removed != 0 {
		t.Errorf("Remove(99) = %d", removed)
	}
}

func TestDirectionString(t *testing.T) {
	if sim.In.String() != "in" || sim.Out.String() != "out" {
		t.Error("Direction.String broken")
	}
}

func TestMessagesProcessedMonotone(t *testing.T) {
	s := scenario.RunningExample()
	before := s.Net.MessagesProcessed()
	s.Net.WithdrawExternalRoute(s.Graph.MustNode("ext6"), s.Prefix)
	s.Net.Run()
	if s.Net.MessagesProcessed() <= before {
		t.Error("message counter did not advance")
	}
}

// TestIBGPPolicies exercises §8's iBGP-policy discussion: route maps on
// internal sessions can discard routes, so different routers may see
// different route sets for the same prefix — the dependency source the
// paper warns about.
func TestIBGPPolicies(t *testing.T) {
	s := scenario.RunningExample()
	n3, n2, n5 := s.Graph.MustNode("n3"), s.Graph.MustNode("n2"), s.Graph.MustNode("n5")
	// n3 denies prefix 0 from BOTH reflectors: it becomes routeless for
	// prefix 0 while every other router keeps its routes.
	for _, rr := range []topology.NodeID{n2, n5} {
		rr := rr
		s.Net.UpdateRouteMap(n3, rr, sim.In, func(rm *sim.RouteMap) {
			rm.Add(sim.Entry{Order: 1,
				Match:  sim.Match{Prefix: sim.PrefixP(0), Neighbor: sim.NodeP(rr)},
				Action: sim.Action{Deny: true}})
		})
	}
	s.Net.Run()
	if _, ok := s.Net.Best(n3, 0); ok {
		t.Error("n3 still selects a route despite iBGP deny policies")
	}
	n4 := s.Graph.MustNode("n4")
	if _, ok := s.Net.Best(n4, 0); !ok {
		t.Error("n4 lost its route though only n3 filters")
	}
	// The forwarding state now differs per router for the same packet —
	// exactly the §8 dependency scenario.
	st := s.Net.ForwardingState(0)
	if st.Reach(n3) {
		t.Error("n3 should black-hole prefix 0")
	}
	if !st.Reach(n4) {
		t.Error("n4 must still reach prefix 0")
	}
}

// TestStaleDeliveryDiscarded: a message sent on a session that is torn down
// and re-established before it arrives belongs to the old session and is
// not applied on the new one. r0 learns p from ext and sends it to r1 over
// a slow iBGP session; the session is removed, ext withdraws p, r0 drops it
// with no session to tell, and the session comes back. Applied on the new
// session, the old update would leave r1 a route via r0 that r0 no longer
// has, and nothing would ever withdraw it.
func TestStaleDeliveryDiscarded(t *testing.T) {
	g := topology.New("stale")
	r0, r1 := g.AddRouter("r0"), g.AddRouter("r1")
	ext := g.AddExternal("ext", 65001)
	g.AddLink(ext, r0, 1)
	g.AddLink(r0, r1, 10)
	net := sim.New(g, sim.Options{Seed: 1})
	net.SetSession(r0, ext, bgp.EBGP)
	net.SetSession(r0, r1, bgp.IBGPPeer)
	const p = bgp.Prefix(1)
	net.InjectExternalRoute(ext, sim.Announcement{Prefix: p})
	net.Step() // r0 learns p and sends it to r1
	net.RemoveSession(r0, r1)
	net.WithdrawExternalRoute(ext, p)
	net.Step() // the withdrawal overtakes the update: r0 drops p
	if _, ok := net.Best(r0, p); ok {
		t.Fatal("r0 still selects p after ext withdrew it")
	}
	net.SetSession(r0, r1, bgp.IBGPPeer)
	net.Run()
	if best, ok := net.Best(r1, p); ok {
		t.Errorf("r1 selects p via %d, which no longer has it", best.Pre())
	}
}
