package sim

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"chameleon/internal/bgp"
	"chameleon/internal/topology"
)

// laneNetwork is the storm topology: routers r0…r{k-1} chained by unit
// links in an iBGP full mesh, and one external network peering with r0 —
// or, with exts 2, a second one peering with r{k-1}.
func laneNetwork(k, exts int, opts Options) (*Network, []topology.NodeID, []topology.NodeID) {
	g := topology.New(fmt.Sprintf("lanes-%d", k))
	routers := make([]topology.NodeID, k)
	for i := range routers {
		routers[i] = g.AddRouter(fmt.Sprintf("r%d", i))
		if i > 0 {
			g.AddLink(routers[i-1], routers[i], 1)
		}
	}
	borders := []topology.NodeID{routers[0], routers[k-1]}[:exts]
	ext := make([]topology.NodeID, exts)
	for i, b := range borders {
		ext[i] = g.AddExternal(fmt.Sprintf("ext%d", i), uint32(65001+i))
		g.AddLink(ext[i], b, 1)
	}
	opts.NoTrace = true
	n := New(g, opts)
	for i, a := range routers {
		for _, b := range routers[i+1:] {
			n.SetSession(a, b, bgp.IBGPPeer)
		}
	}
	for i, b := range borders {
		n.SetSession(b, ext[i], bgp.EBGP)
	}
	return n, routers, ext
}

// directedSessions counts the up sessions of n, each direction once: the
// lanes a message can be in flight on.
func directedSessions(n *Network) int {
	d := 0
	for _, r := range n.routers {
		for _, p := range r.peers {
			if p.up {
				d++
			}
		}
	}
	return d
}

// laneDelivery delays or duplicates a seeded share of the messages; with
// shorten it speeds a share up instead, some to no delay at all.
type laneDelivery struct {
	rng     *rand.Rand
	shorten bool
}

func (f laneDelivery) Deliver(_, _ topology.NodeID, delay time.Duration) (time.Duration, time.Duration) {
	switch f.rng.IntN(6) {
	case 0:
		if f.shorten {
			return time.Duration(float64(delay) * f.rng.Float64()), 0
		}
		return time.Duration(float64(delay) * (1 + 4*f.rng.Float64())), 0
	case 1:
		return delay, delay / 2
	case 2:
		if f.shorten {
			return 0, 0
		}
	}
	return delay, 0
}

// TestLanesMatchSortedReference runs seeded networks in lockstep with a
// slice of every pending event, kept sorted by (at, seq): announcements and
// withdrawals route by route on every session, with jitter, delayed and
// duplicated messages, and a session torn down and re-established while
// messages are in flight on it. Seeds past 16 shorten delays instead, down
// to 0, so a message can fall due before the ones sent ahead of it. Every
// step must deliver the event the slice holds first, in FIFO order per
// session; Pending and Converged must agree with the slice; no delivered
// message may keep its link, and every lane must be empty once the run
// drains.
func TestLanesMatchSortedReference(t *testing.T) {
	longest, stale := 0, 0
	for seed := uint64(1); seed <= 24; seed++ {
		n, routers, exts := laneNetwork(4, 2, DefaultOptions(seed))
		n.Run()
		rng := rand.New(rand.NewPCG(seed, 29))
		n.SetDelivery(laneDelivery{rng: rand.New(rand.NewPCG(seed, 31)), shorten: seed > 16})
		for i := range 80 {
			p, at := bgp.Prefix(i%24), time.Duration(rng.IntN(300))*time.Millisecond
			ext := exts[i%2]
			if i < 48 || rng.IntN(3) > 0 {
				ann := Announcement{Prefix: p, ASPathLen: 1 + rng.IntN(3)}
				n.ScheduleAt(at, func(n *Network) { n.InjectExternalRoute(ext, ann) })
			} else {
				n.ScheduleAt(at, func(n *Network) { n.WithdrawExternalRoute(ext, p) })
			}
		}
		a, b := routers[0], routers[1+rng.IntN(len(routers)-1)]
		down := time.Duration(50+rng.IntN(150)) * time.Millisecond
		n.ScheduleAt(down, func(n *Network) { n.RemoveSession(a, b) })
		n.ScheduleAt(down+time.Duration(rng.IntN(40))*time.Millisecond, func(n *Network) {
			n.SetSession(a, b, bgp.IBGPPeer)
		})

		var ref []*event
		seen := map[*event]bool{}
		collect := func() {
			for _, head := range n.queue {
				for e, k := head, 1; ; e, k = &e.msg.next.delivery, k+1 {
					longest = max(longest, k)
					if !seen[e] {
						seen[e] = true
						ref = append(ref, e)
					}
					if e.msg == nil || e.msg.next == nil {
						break
					}
				}
			}
			slices.SortFunc(ref, func(a, b *event) int {
				return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
			})
		}
		type session struct{ from, to topology.NodeID }
		last := map[session]*event{}
		var delivered []*message
		collect()
		for step := 0; len(ref) > 0; step++ {
			got := n.queue[0]
			if got != ref[0] {
				t.Fatalf("seed %d step %d: the heap's next event is (%v, %d), the reference's (%v, %d)",
					seed, step, got.at, got.seq, ref[0].at, ref[0].seq)
			}
			if m := got.msg; m != nil && got.epoch != n.routers[m.to].peer(m.from).epoch {
				stale++
			}
			if !n.Step() {
				t.Fatalf("seed %d step %d: Step found no event, the reference holds %d", seed, step, len(ref))
			}
			ref = ref[1:]
			if m := got.msg; m != nil {
				if m.next != nil {
					t.Fatalf("seed %d step %d: a delivered message still links the next one", seed, step)
				}
				s := session{m.from, m.to}
				if prev := last[s]; prev != nil && (got.at <= prev.at || got.seq <= prev.seq) {
					t.Fatalf("seed %d step %d: %d→%d delivered (%v, %d) after (%v, %d)",
						seed, step, m.from, m.to, got.at, got.seq, prev.at, prev.seq)
				}
				last[s] = got
				delivered = append(delivered, m)
			}
			collect()
			converged := !slices.ContainsFunc(ref, (*event).inFlight)
			if n.Pending() != len(ref) || n.Converged() != converged {
				t.Fatalf("seed %d step %d: Pending %d, Converged %v; the reference holds %d, converged %v",
					seed, step, n.Pending(), n.Converged(), len(ref), converged)
			}
		}
		if n.Step() {
			t.Fatalf("seed %d: the network stepped past the reference's last event", seed)
		}
		if len(delivered) < 100 || len(last) < 10 {
			t.Fatalf("seed %d: only %d messages on %d sessions", seed, len(delivered), len(last))
		}
		for _, m := range delivered {
			if m.next != nil {
				t.Fatalf("seed %d: a delivered message %d→%d still links the next one", seed, m.from, m.to)
			}
		}
		for _, r := range n.routers {
			for _, p := range r.peers {
				if p.tail != nil {
					t.Fatalf("seed %d: the lane %d→%d keeps a tail after the run drained", seed, p.id, r.id)
				}
			}
		}
	}
	if longest < 3 || stale == 0 {
		t.Fatalf("the runs queued at most %d messages on one lane and discarded %d stale ones", longest, stale)
	}
	t.Logf("lanes up to %d messages long, %d stale deliveries discarded", longest, stale)
}

// TestStormHeapHoldsLaneHeads injects a 1k-prefix storm route by route and
// checks, after every step, that the heap holds at most one delivery per
// directed session beside its timers: a message waits behind the head of
// its session's lane, not in the heap.
func TestStormHeapHoldsLaneHeads(t *testing.T) {
	const prefixes = 1000
	opts := DefaultOptions(7)
	opts.Jitter = 0
	n, _, exts := laneNetwork(4, 1, opts)
	for p := range bgp.Prefix(prefixes) {
		n.InjectExternalRoute(exts[0], Announcement{Prefix: p, ASPathLen: 2})
	}
	sessions := directedSessions(n)
	maxHeap, maxPending := 0, 0
	for {
		timers := 0
		for _, e := range n.queue {
			if e.msg == nil {
				timers++
			}
		}
		if len(n.queue) > sessions+timers {
			t.Fatalf("the heap holds %d events: more than %d directed sessions plus %d timers",
				len(n.queue), sessions, timers)
		}
		maxHeap, maxPending = max(maxHeap, len(n.queue)), max(maxPending, n.Pending())
		if !n.Step() {
			break
		}
	}
	if maxPending < prefixes {
		t.Fatalf("at most %d events were pending; the storm should keep %d in flight", maxPending, prefixes)
	}
	if got := n.TableEntries(); got < prefixes {
		t.Fatalf("the storm converged to %d Adj-RIB-In entries, want at least %d", got, prefixes)
	}
	t.Logf("heap at most %d entries over %d directed sessions, %d events pending at most",
		maxHeap, sessions, maxPending)
}
