package sim_test

// Differential property test over table sharing. The route tables are
// copy-on-write, so the thing that may change cost but never behavior is
// whether a table's nodes are shared with a clone. The same randomized
// announce/withdraw/flap/fail sequence is driven through a network that is
// never cloned and through one that is cloned after every operation (which
// retires every table's owner token, so each later write path-copies); the
// two must produce byte-identical state snapshots, forwarding traces,
// violation timelines and observability counters, and every retained clone
// must still hold the routing state of the moment it was taken. (What the
// table itself stores is checked against a map model in internal/bgp.)

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"testing"

	"chameleon/internal/bgp"
	"chameleon/internal/monitor"
	"chameleon/internal/obs"
	"chameleon/internal/sim"
	"chameleon/internal/topology"
)

// diffFixture is one network plus everything we compare.
type diffFixture struct {
	net  *sim.Network
	g    *topology.Graph
	rrs  []topology.NodeID
	bdr  []topology.NodeID // border routers, session to exts[i]
	exts []topology.NodeID
	mon  *monitor.Monitor
	rec  *obs.Recorder
}

func buildDiffNet(t *testing.T) *diffFixture {
	t.Helper()
	return buildDiffNetOpts(t, sim.DefaultOptions(11))
}

func buildDiffNetOpts(t *testing.T, opts sim.Options) *diffFixture {
	t.Helper()
	g := topology.New("diff")
	var rt []topology.NodeID
	for i := 0; i < 6; i++ {
		rt = append(rt, g.AddRouter(fmt.Sprintf("r%d", i)))
	}
	ext1 := g.AddExternal("ext1", 65001)
	ext2 := g.AddExternal("ext2", 65002)
	g.AddLink(rt[0], rt[1], 1)
	g.AddLink(rt[1], rt[2], 2)
	g.AddLink(rt[2], rt[3], 1)
	g.AddLink(rt[3], rt[4], 2)
	g.AddLink(rt[4], rt[5], 1)
	g.AddLink(rt[5], rt[0], 2)
	g.AddLink(rt[1], rt[4], 3)
	g.AddLink(ext1, rt[0], 1)
	g.AddLink(ext2, rt[3], 1)

	net := sim.New(g, opts)
	rrs := []topology.NodeID{rt[1], rt[4]}
	for _, rr := range rrs {
		for _, c := range []topology.NodeID{rt[0], rt[2], rt[3], rt[5]} {
			net.SetSession(rr, c, bgp.IBGPClient)
		}
	}
	net.SetSession(rrs[0], rrs[1], bgp.IBGPPeer)
	net.SetSession(rt[0], ext1, bgp.EBGP)
	net.SetSession(rt[3], ext2, bgp.EBGP)

	rec := obs.New()
	net.SetRecorder(rec)
	mon := monitor.New(monitor.Config{
		Name:       "diff",
		Invariants: []monitor.Invariant{monitor.ReachAll(g), monitor.LoopFree()},
	})
	mon.Bind(net)
	return &diffFixture{
		net: net, g: g, rrs: rrs,
		bdr:  []topology.NodeID{rt[0], rt[3]},
		exts: []topology.NodeID{ext1, ext2},
		mon:  mon, rec: rec,
	}
}

// driveDiffOps applies a deterministic pseudo-random operation sequence,
// calling afterOp (if non-nil) each time the network has converged. Both
// fixtures get a fresh RNG with the same seed, so they see identical
// operations; any divergence in outcome is the tables' fault.
func driveDiffOps(f *diffFixture, seed uint64, batched bool, afterOp func()) {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	const universe = 48
	ann := func(p bgp.Prefix) sim.Announcement {
		return sim.Announcement{
			Prefix:    p,
			ASPathLen: 1 + rng.IntN(3),
			MED:       uint32(rng.IntN(4)),
		}
	}
	for op := 0; op < 60; op++ {
		ext := f.exts[rng.IntN(len(f.exts))]
		switch rng.IntN(6) {
		case 0, 1: // announce a block of prefixes
			k := 1 + rng.IntN(8)
			anns := make([]sim.Announcement, 0, k)
			for i := 0; i < k; i++ {
				anns = append(anns, ann(bgp.Prefix(rng.IntN(universe))))
			}
			if batched {
				f.net.InjectExternalRoutes(ext, anns)
			} else {
				for _, a := range anns {
					f.net.InjectExternalRoute(ext, a)
				}
			}
		case 2: // withdraw a block
			k := 1 + rng.IntN(6)
			ps := make([]bgp.Prefix, 0, k)
			for i := 0; i < k; i++ {
				ps = append(ps, bgp.Prefix(rng.IntN(universe)))
			}
			if batched {
				f.net.WithdrawExternalRoutes(ext, ps)
			} else {
				for _, p := range ps {
					f.net.WithdrawExternalRoute(ext, p)
				}
			}
		case 3: // flap: announce and withdraw while churn is in flight
			p := bgp.Prefix(rng.IntN(universe))
			f.net.InjectExternalRoute(ext, ann(p))
			f.net.RunUntil(f.net.Now() + 5e6) // partial propagation
			f.net.WithdrawExternalRoute(ext, p)
		case 4: // IGP event
			a := topology.NodeID(rng.IntN(6))
			b := topology.NodeID((int(a) + 1) % 6)
			if f.net.FailLink(a, b) {
				f.net.Run()
				f.net.RestoreLink(a, b)
			}
		case 5: // ingress policy change at a border router
			i := rng.IntN(len(f.bdr))
			lp := uint32(80 + rng.IntN(3)*40)
			f.net.UpdateRouteMap(f.bdr[i], f.exts[i], sim.In, func(rm *sim.RouteMap) {
				rm.Remove(10)
				rm.Add(sim.Entry{Order: 10, Action: sim.Action{SetLocalPref: sim.U32P(lp)}})
			})
		}
		f.net.Run()
		if afterOp != nil {
			afterOp()
		}
	}
}

// fingerprint serializes everything the two runs must agree on.
func fingerprint(t *testing.T, f *diffFixture) []byte {
	t.Helper()
	st, err := f.net.CaptureState()
	if err != nil {
		t.Fatalf("CaptureState: %v", err)
	}
	tl := f.mon.Finish(f.net.Now())
	type dump struct {
		State       interface{}
		Timeline    interface{}
		Counters    map[string]int64
		Msgs        uint64
		Entries     int
		MaxEntries  int
		EBGPExports []int
		Traces      map[int]interface{}
	}
	d := dump{
		State:      st,
		Timeline:   tl,
		Counters:   f.rec.Counters(),
		Msgs:       f.net.MessagesProcessed(),
		Entries:    f.net.TableEntries(),
		MaxEntries: f.net.MaxTableEntries(),
		Traces:     map[int]interface{}{},
	}
	for p := 0; p < 48; p++ {
		d.EBGPExports = append(d.EBGPExports, f.net.EBGPExports(bgp.Prefix(p)))
		if tr := f.net.Trace(bgp.Prefix(p)); tr != nil {
			d.Traces[p] = tr
		}
	}
	b, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// routerStates serializes the per-router half of a state capture: the part
// Clone carries over (clock-independent counters are not cloned).
func routerStates(t *testing.T, n *sim.Network) string {
	t.Helper()
	st, err := n.CaptureState()
	if err != nil {
		t.Fatalf("CaptureState: %v", err)
	}
	b, err := json.Marshal(st.Routers)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

func TestDifferentialEngines(t *testing.T) {
	for _, mode := range []struct {
		name    string
		batched bool
	}{{"per-route", false}, {"batched", true}} {
		t.Run(mode.name, func(t *testing.T) {
			for _, seed := range []uint64{3, 17, 99} {
				plain := buildDiffNet(t)
				shared := buildDiffNet(t)
				type snapshot struct {
					net  *sim.Network
					want string
				}
				var snaps []snapshot
				driveDiffOps(plain, seed, mode.batched, nil)
				driveDiffOps(shared, seed, mode.batched, func() {
					snaps = append(snaps, snapshot{shared.net.Clone(), routerStates(t, shared.net)})
				})
				a, b := fingerprint(t, plain), fingerprint(t, shared)
				if string(a) != string(b) {
					diffAt := 0
					for diffAt < len(a) && diffAt < len(b) && a[diffAt] == b[diffAt] {
						diffAt++
					}
					lo := max(0, diffAt-200)
					t.Fatalf("seed %d: runs diverge at byte %d:\nplain:  …%s…\nshared: …%s…",
						seed, diffAt, a[lo:min(len(a), diffAt+200)], b[lo:min(len(b), diffAt+200)])
				}
				for i, s := range snaps {
					if got := routerStates(t, s.net); got != s.want {
						t.Fatalf("seed %d: clone taken after op %d drifted from its point-in-time state", seed, i)
					}
				}
			}
		})
	}
}
