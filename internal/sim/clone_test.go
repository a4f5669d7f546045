package sim_test

import (
	"crypto/sha256"
	"encoding/json"
	"math"
	"runtime"
	"testing"
	"time"

	"chameleon/internal/bgp"
	"chameleon/internal/scenario"
	"chameleon/internal/sim"
	"chameleon/internal/topology"
)

func abilenePlus3(t testing.TB) *scenario.Scenario {
	t.Helper()
	s, err := scenario.CaseStudy("Abilene", scenario.Config{Seed: 7, ExtraPrefixes: 3})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func storm(t testing.TB, prefixes int) *scenario.Storm {
	t.Helper()
	st, err := scenario.BuildStorm(scenario.StormConfig{Prefixes: prefixes, Seed: 7, Batched: true})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func capture(t *testing.T, n *sim.Network) *sim.NetState {
	t.Helper()
	st, err := n.CaptureState()
	if err != nil {
		t.Fatalf("CaptureState: %v", err)
	}
	return st
}

// digest is the SHA-256 of a network's full CaptureState JSON.
func digest(t *testing.T, n *sim.Network) [32]byte {
	t.Helper()
	b, err := json.Marshal(capture(t, n))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return sha256.Sum256(b)
}

// TestCloneSharesCopiesAndResets pins Clone's documented contract on
// Abilene+3: the clone's routers capture byte-identically to the source's,
// the clock is carried, and the history counters start over.
func TestCloneSharesCopiesAndResets(t *testing.T) {
	s := abilenePlus3(t)
	src := capture(t, s.Net)
	if src.MsgCount == 0 || src.MaxTableEntries == 0 || len(src.EBGPExports) == 0 {
		t.Fatalf("source has no history to reset: msgs %d, max table %d, eBGP exports %v",
			src.MsgCount, src.MaxTableEntries, src.EBGPExports)
	}
	t.Logf("source: %d messages, at most %d table entries, eBGP exports for %d prefixes",
		src.MsgCount, src.MaxTableEntries, len(src.EBGPExports))
	c := s.Net.Clone()
	got := capture(t, c)

	want, err := json.Marshal(src.Routers)
	if err != nil {
		t.Fatal(err)
	}
	have, err := json.Marshal(got.Routers)
	if err != nil {
		t.Fatal(err)
	}
	if string(have) != string(want) {
		t.Error("clone's routers do not capture like the source's")
	}
	if got.Now != src.Now {
		t.Errorf("clone's clock %v, source's %v", got.Now, src.Now)
	}
	if got.MsgCount != 0 || got.MaxTableEntries != 0 || len(got.EBGPExports) != 0 || got.Run != 0 {
		t.Errorf("clone carries history: msgs %d, max table %d, eBGP exports %v, run %d; want all reset",
			got.MsgCount, got.MaxTableEntries, got.EBGPExports, got.Run)
	}
	if c.TableEntries() != s.Net.TableEntries() {
		t.Errorf("clone has %d table entries, source %d", c.TableEntries(), s.Net.TableEntries())
	}
}

// originator returns the first external router that originates something,
// with its originated prefixes in ascending order.
func originator(t *testing.T, n *sim.Network) (topology.NodeID, []sim.OriginatedState) {
	t.Helper()
	for _, rs := range capture(t, n).Routers {
		if len(rs.Originated) > 0 {
			return rs.ID, rs.Originated
		}
	}
	t.Fatal("no external router originates anything")
	return 0, nil
}

// deny returns a route-map mutation adding a deny entry for prefix at
// order.
func deny(order int, prefix bgp.Prefix) func(*sim.RouteMap) {
	return func(rm *sim.RouteMap) {
		rm.Add(sim.Entry{Order: order, Match: sim.Match{Prefix: sim.PrefixP(prefix)}, Action: sim.Action{Deny: true}})
	}
}

// reconfigure writes configuration on n: an ingress route-map entry at a
// towards b, then a teardown and re-establishment of their session.
func reconfigure(n *sim.Network, a, b topology.NodeID, order int, prefix bgp.Prefix) {
	n.UpdateRouteMap(a, b, sim.In, deny(order, prefix))
	kind, _ := n.HasSession(a, b)
	n.RemoveSession(a, b)
	n.SetSession(a, b, kind)
	n.Run()
}

// TestCloneIsolation writes to each side of a clone in turn — a withdrawal
// and configuration (a route-map entry, a session torn down and brought
// back) on the clone, then a new prefix, a changed announcement and the same
// kind of configuration on the source — and checks that the other side's
// complete state did not move. The route map written to exists before the
// clone, so both sides start from equal copies of it. A second clone that
// never writes must not move either: on the small networks the first
// clone's withdrawal copies every leaf it shares, so only the idle one still
// shares nodes with the source. A clone that left either side owning the
// shared trie nodes, or sharing a peer table or a route map, fails here.
func TestCloneIsolation(t *testing.T) {
	for _, tc := range []struct {
		name string
		net  func(*testing.T) *sim.Network
	}{
		{"RunningExample", func(*testing.T) *sim.Network { return scenario.RunningExample().Net }},
		{"Abilene+3", func(t *testing.T) *sim.Network { return abilenePlus3(t).Net }},
		{"storm-20k", func(t *testing.T) *sim.Network { return storm(t, 20_000).Net }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.net(t)
			n.Run()
			ext, orig := originator(t, n)
			// The router that learns from ext, and a prefix nobody announces
			// for the route-map entry both sides inherit.
			a := n.Sessions(ext)[0]
			last := orig[len(orig)-1]
			n.UpdateRouteMap(a, ext, sim.In, deny(10, last.Prefix+2))
			n.Run()
			c, idle := n.Clone(), n.Clone()
			before, cloned := digest(t, n), digest(t, c) // idle's is c's

			c.WithdrawExternalRoute(ext, orig[0].Prefix)
			c.Run()
			reconfigure(c, a, ext, 20, orig[0].Prefix)
			if digest(t, n) != before {
				t.Fatal("writes on the clone changed the source")
			}
			after := digest(t, c)
			if after == cloned {
				t.Fatal("the writes did not change the clone")
			}

			n.InjectExternalRoutes(ext, []sim.Announcement{
				{Prefix: last.Prefix, ASPathLen: last.ASPathLen, MED: last.MED + 1},
				{Prefix: last.Prefix + 1, ASPathLen: last.ASPathLen},
			})
			n.Run()
			reconfigure(n, a, ext, 30, last.Prefix)
			if digest(t, c) != after {
				t.Fatal("writes on the source changed the clone")
			}
			if digest(t, idle) != cloned {
				t.Fatal("writes on the source changed an idle clone")
			}
			if digest(t, n) == before {
				t.Fatal("the writes did not change the source")
			}
		})
	}
}

// cloneBytes returns the bytes one Clone of n allocates: the least of a few
// samples, since a concurrently running test can only add to the count.
func cloneBytes(n *sim.Network) uint64 {
	best := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range 5 {
		runtime.ReadMemStats(&before)
		c := n.Clone()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(c)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestCloneCostIndependentOfPrefixes: Clone copies configuration and shares
// tables, so what it allocates must not grow with the prefix count. A 20×
// larger storm may cost at most a constant more (a table one trie level
// deeper shares its root all the same).
func TestCloneCostIndependentOfPrefixes(t *testing.T) {
	small, large := storm(t, 1_000), storm(t, 20_000)
	bs, bl := cloneBytes(small.Net), cloneBytes(large.Net)
	const slack = 1 << 10
	if bl > bs+slack {
		t.Errorf("Clone allocates %d B at 20 000 prefixes and %d B at 1 000: cost grows with the table", bl, bs)
	}
	t.Logf("Clone allocates %d B at 1 000 prefixes, %d B at 20 000", bs, bl)
}

// TestCloneInheritsNoFaultHooks: a clone of a network with a fault injector
// and a Delivery installed consults neither, as SetFaultInjector and
// SetDelivery document; the source, running the same command, consults
// both.
func TestCloneInheritsNoFaultHooks(t *testing.T) {
	s := scenario.RunningExample()
	s.Net.Run()
	cmds, msgs := 0, 0
	s.Net.SetFaultInjector(scriptInjector(func(topology.NodeID, string, int) sim.CommandFault {
		cmds++
		return sim.CommandFault{}
	}))
	s.Net.SetDelivery(deliverFunc(func(_, _ topology.NodeID, d time.Duration) (time.Duration, time.Duration) {
		msgs++
		return d, 0
	}))
	c := s.Net.Clone()
	c.ScheduleCommand(time.Second, s.Commands[0], 0)
	c.Run()
	if cmds != 0 || msgs != 0 {
		t.Errorf("the clone consulted its source's hooks: %d commands, %d messages", cmds, msgs)
	}
	s.Net.ScheduleCommand(time.Second, s.Commands[0], 0)
	s.Net.Run()
	if cmds == 0 || msgs == 0 {
		t.Errorf("the source consulted its hooks for %d commands and %d messages; want both > 0", cmds, msgs)
	}
}
