package sim_test

// Tests for the one-message design: the simulator has a single BGP message
// (announced routes + withdrawn prefixes) and a single routine that applies
// it, so a lone announcement is a message of one. Pinned here:
// (1) message-for-message identity with the two-path simulator this
// replaced — digests of state, traces and counters recorded before the
// merge; (2) a message of n converges to what n messages of one converge
// to, a prefix named twice included; (3) a message of one still costs what
// the dedicated single-route message cost.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"chameleon/internal/bgp"
	"chameleon/internal/obs"
	"chameleon/internal/scenario"
	"chameleon/internal/sim"
	"chameleon/internal/topology"
)

// runDigest hashes everything a run leaves behind that depends on which
// messages were sent, in what order and with which jitter draws: the state
// capture (it holds the clock and the message count), every forwarding
// trace and the recorder's counters.
func runDigest(t *testing.T, net *sim.Network, rec *obs.Recorder, prefixes []bgp.Prefix) string {
	t.Helper()
	st, err := net.CaptureState()
	if err != nil {
		t.Fatalf("CaptureState: %v", err)
	}
	h := sha256.New()
	enc := json.NewEncoder(h)
	must := func(err error) {
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	must(enc.Encode(st))
	for _, p := range prefixes {
		if tr := net.Trace(p); tr != nil {
			fmt.Fprintf(h, "trace %d\n", p)
			must(enc.Encode(tr))
		}
	}
	must(enc.Encode(rec.Counters()))
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestMessageForMessageIdentity holds the simulator to the digests recorded
// at the last commit that had separate per-route and batched delivery
// paths (PR 17, 4633809). Every judged run — case studies, plan executions,
// chaos — went through the per-route path, so it is the reference: a change
// to message boundaries, send order or jitter draws moves a digest. One
// that means to re-records them on purpose.
func TestMessageForMessageIdentity(t *testing.T) {
	universe := make([]bgp.Prefix, 48)
	for i := range universe {
		universe[i] = bgp.Prefix(i)
	}
	diffOps := func(seed uint64, blocks bool) func(*testing.T) string {
		return func(t *testing.T) string {
			f := buildDiffNet(t)
			driveDiffOps(f, seed, blocks, nil)
			return runDigest(t, f.net, f.rec, universe)
		}
	}
	cases := []struct {
		name string
		run  func(*testing.T) string
		want string
	}{
		{"ops-1/route-by-route", diffOps(1, false), "502943af00a80ac2"},
		{"ops-2/route-by-route", diffOps(2, false), "02236c46dc44c522"},
		{"ops-3/route-by-route", diffOps(3, false), "8cb024e5e1c7ca9e"},
		{"ops-42/route-by-route", diffOps(42, false), "dfd765d354c8fe88"},
		{"ops-1/blocks", diffOps(1, true), "e67c1f9171c82b04"},
		{"ops-2/blocks", diffOps(2, true), "6005448fe40a2c88"},
		{"ops-3/blocks", diffOps(3, true), "75b0d573e8d5a7f9"},
		{"ops-42/blocks", diffOps(42, true), "4ace99c46577404f"},
		{"running-example", func(t *testing.T) string {
			// The paper's reconfiguration, command by command.
			s := scenario.RunningExample()
			rec := obs.New()
			s.Net.SetRecorder(rec)
			for _, cmd := range s.Commands {
				cmd.Apply(s.Net)
				s.Net.Run()
			}
			return runDigest(t, s.Net, rec, s.AllPrefixes())
		}, "602f7e985c4fc23f"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.run(t); got != c.want {
				t.Errorf("digest %s, recorded %s", got, c.want)
			}
		})
	}
}

// TestBatchedMatchesPerRouteOutcome: a message of n ≡ n messages of one.
// The same block is announced (or withdrawn) whole on one network and route
// by route on its twin; messages differ — that is the point — but the
// converged selection at every internal router and the number of routes
// leaked to external peers per prefix must not. Jitter is off, so the two
// runs see the same relative arrival order per prefix and the export counts
// agree by construction rather than by luck of the draw.
func TestBatchedMatchesPerRouteOutcome(t *testing.T) {
	const n = 40
	block := func(asPathLen func(p int) int) []sim.Announcement {
		anns := make([]sim.Announcement, n)
		for p := range anns {
			anns[p] = sim.Announcement{Prefix: bgp.Prefix(p), ASPathLen: asPathLen(p)}
		}
		return anns
	}
	flat := func(l int) func(int) int { return func(int) int { return l } }
	routeByRoute := func(f *diffFixture, ext int, anns []sim.Announcement) {
		for _, a := range anns {
			f.net.InjectExternalRoute(f.exts[ext], a)
		}
		f.net.Run()
	}
	announce := func(anns []sim.Announcement) func(*diffFixture, bool) {
		return func(f *diffFixture, whole bool) {
			if whole {
				f.net.InjectExternalRoutes(f.exts[0], anns)
				return
			}
			for _, a := range anns {
				f.net.InjectExternalRoute(f.exts[0], a)
			}
		}
	}
	cases := []struct {
		name  string
		setup func(*diffFixture)       // converged state the block meets, built route by route
		send  func(*diffFixture, bool) // the block from exts[0], whole or route by route
		// cut removes the session the block travels on while it is in flight:
		// the block is dropped whole and no table moves.
		cut bool
		// mixed expects the block to set off announcements and withdrawals
		// alike downstream of the border router.
		mixed bool
	}{
		{name: "announcements", send: announce(block(func(p int) int { return 1 + p%3 }))},
		{
			name:  "withdrawals",
			setup: func(f *diffFixture) { routeByRoute(f, 0, block(flat(2))) },
			send: func(f *diffFixture, whole bool) {
				ps := make([]bgp.Prefix, 0, n/2)
				for p := 0; p < n; p += 2 {
					ps = append(ps, bgp.Prefix(p))
				}
				if whole {
					f.net.WithdrawExternalRoutes(f.exts[0], ps)
					return
				}
				for _, p := range ps {
					f.net.WithdrawExternalRoute(f.exts[0], p)
				}
			},
		},
		{
			// Everyone prefers ext1's routes until the block makes them the
			// worse ones: each router re-selects ext2's.
			name: "re-announced worse",
			setup: func(f *diffFixture) {
				routeByRoute(f, 0, block(flat(1)))
				routeByRoute(f, 1, block(flat(2)))
			},
			send: announce(block(flat(3))),
		},
		{
			// Both externals announce everything alike, so the reflector next
			// to ext1's border router has advertised ext1's routes to ext2's
			// border router. The block worsens the lower half (the reflector
			// switches to the route it learned from that router: a withdrawal
			// towards it) and improves the upper half (an update): one message
			// carrying both kinds for routes its receiver holds.
			name: "updates and withdrawals mixed",
			setup: func(f *diffFixture) {
				routeByRoute(f, 0, block(flat(2)))
				routeByRoute(f, 1, block(flat(2)))
			},
			send: announce(block(func(p int) int {
				if p < n/2 {
					return 5
				}
				return 1
			})),
			mixed: true,
		},
		{
			name:  "session removed while the block is in flight",
			setup: func(f *diffFixture) { routeByRoute(f, 1, block(flat(2))) },
			send:  announce(block(flat(1))),
			cut:   true,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opts := sim.DefaultOptions(11)
			opts.Jitter = 0
			one, all := buildDiffNetOpts(t, opts), buildDiffNetOpts(t, opts)
			var msgs [2]uint64
			for i, f := range []*diffFixture{one, all} {
				if c.setup != nil {
					c.setup(f)
				}
				start, entries := f.net.MessagesProcessed(), f.net.TableEntries()
				held, sent := internalBests(f, n), f.rec.Counters()
				c.send(f, f == all)
				if c.cut {
					f.net.RemoveSession(f.bdr[0], f.exts[0])
				}
				f.net.Run()
				msgs[i] = f.net.MessagesProcessed() - start
				if c.cut && (f.net.TableEntries() != entries || internalBests(f, n) != held) {
					t.Errorf("whole=%v: a block dropped with its session moved a table", f == all)
				}
				now := f.rec.Counters()
				if c.mixed && (now[obs.CtrBGPUpdates] == sent[obs.CtrBGPUpdates] || now[obs.CtrBGPWithdraws] == sent[obs.CtrBGPWithdraws]) {
					t.Errorf("whole=%v: the block set off no withdrawal or no update: counters %v, before it %v", f == all, now, sent)
				}
			}
			if msgs[1] >= msgs[0] {
				t.Errorf("the whole block took %d messages, route by route %d: not fewer", msgs[1], msgs[0])
			}
			for p := bgp.Prefix(0); p < n; p++ {
				for _, node := range one.g.Internal() {
					ro, oko := one.net.Best(node, p)
					ra, oka := all.net.Best(node, p)
					if oko != oka || !ro.PathEqual(ra) || ro.ASPathLen != ra.ASPathLen || ro.LocalPref != ra.LocalPref {
						t.Fatalf("node %d prefix %d: route by route %v(%v), whole block %v(%v)",
							node, p, ro, oko, ra, oka)
					}
				}
				if eo, ea := one.net.EBGPExports(p), all.net.EBGPExports(p); eo != ea {
					t.Errorf("prefix %d: %d eBGP exports route by route, %d as a block", p, eo, ea)
				}
			}
		})
	}
}

// internalBests renders the selection of every internal router for prefixes
// 0..n-1.
func internalBests(f *diffFixture, n int) string {
	var b []byte
	for p := bgp.Prefix(0); p < bgp.Prefix(n); p++ {
		for _, node := range f.g.Internal() {
			r, ok := f.net.Best(node, p)
			b = fmt.Appendf(b, "%d@%d: %v %v\n", p, node, r, ok)
		}
	}
	return string(b)
}

// TestBlockNamingAPrefixTwiceLastWins: a block that announces one prefix
// more than once means what announcing its entries one after another means
// — the last announcement stands. The block is ordered by prefix before it
// is sent, so this holds only if that ordering is stable; an unstable sort
// picked an arbitrary winner for blocks past its insertion-sort cutoff.
func TestBlockNamingAPrefixTwiceLastWins(t *testing.T) {
	for n := 2; n <= 64; n++ {
		anns := make([]sim.Announcement, n)
		for p := range anns {
			anns[p] = sim.Announcement{Prefix: bgp.Prefix(p % 7), ASPathLen: 1, MED: uint32(p)}
		}
		one, all := buildDiffNet(t), buildDiffNet(t)
		for _, a := range anns {
			one.net.InjectExternalRoute(one.exts[0], a)
		}
		one.net.Run()
		all.net.InjectExternalRoutes(all.exts[0], anns)
		all.net.Run()
		for p := bgp.Prefix(0); p < 7; p++ {
			for _, node := range one.g.Internal() {
				ro, oko := one.net.Best(node, p)
				ra, oka := all.net.Best(node, p)
				if oko != oka || ro.MED != ra.MED {
					t.Fatalf("block of %d, node %d prefix %d: MED %d(%v) route by route, %d(%v) as a block",
						n, node, p, ro.MED, oko, ra.MED, oka)
				}
			}
		}
	}
}

// TestSingleRouteMessageAllocs pins what a message of one costs: one
// changed route arrives at a border router, travels to a route reflector
// with three clients, is reflected to the other two, and the network
// drains. The ceiling is the count measured on the simulator that had a
// dedicated single-route message with its route inline. The count is now
// 10: 4 messages, each one allocation with its delivery event, and the
// slices the 4 new attribute records own (the external route's path, the
// path the border sends the reflector, path and cluster list of each
// reflected route); every route is built in scratch and interned once. A
// payload or an event allocated apart from its message exceeds it.
func TestSingleRouteMessageAllocs(t *testing.T) {
	g := topology.New("rr3")
	rr := g.AddRouter("rr")
	var clients []topology.NodeID
	for i := 0; i < 3; i++ {
		c := g.AddRouter(fmt.Sprintf("c%d", i))
		g.AddLink(rr, c, 1)
		clients = append(clients, c)
	}
	ext := g.AddExternal("ext", 65001)
	g.AddLink(ext, clients[0], 1)
	opts := sim.DefaultOptions(1)
	opts.NoTrace = true // tracing off: snapshots are not the subject
	net := sim.New(g, opts)
	for _, c := range clients {
		net.SetSession(rr, c, bgp.IBGPClient)
	}
	net.SetSession(clients[0], ext, bgp.EBGP)

	med := uint32(0)
	update := func() {
		med++ // a changed attribute, so every router on the way re-selects and re-exports
		net.InjectExternalRoute(ext, sim.Announcement{Prefix: 1, ASPathLen: 1, MED: med})
		net.Run()
	}
	update()
	before := net.MessagesProcessed()
	update()
	if got := net.MessagesProcessed() - before; got != 4 {
		t.Fatalf("one update took %d messages, want 4 (ext→c0→rr→c1,c2)", got)
	}
	const ceiling = 11
	if allocs := testing.AllocsPerRun(200, update); allocs > ceiling {
		t.Errorf("%v allocations per single-route update, ceiling %d", allocs, ceiling)
	}
	if best, ok := net.Best(clients[2], 1); !ok || best.MED != med {
		t.Fatalf("the last update did not reach c2: %+v %v", best, ok)
	}
}
