package sim_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"chameleon/internal/bgp"
	"chameleon/internal/fwd"
	"chameleon/internal/scenario"
	"chameleon/internal/sim"
	"chameleon/internal/topology"
)

// snapRecord is one observed snapshot with its provenance, rendered to a
// deterministic string for cross-run comparison.
type snapRecord struct {
	at   time.Duration
	prov sim.Provenance
}

func (r snapRecord) String() string {
	return fmt.Sprintf("%d|%s|%q|%d|%d|%d|%d",
		r.at, r.prov.Cause.Kind, r.prov.Cause.Label, r.prov.Cause.Node,
		r.prov.Cause.Seq, r.prov.Cause.At, r.prov.Hops)
}

// collectSnapshots installs a hook recording every snapshot's provenance.
func collectSnapshots(net *sim.Network) *[]snapRecord {
	recs := &[]snapRecord{}
	net.SetSnapshotHook(func(at time.Duration, _ bgp.Prefix, _ fwd.State, prov sim.Provenance) {
		*recs = append(*recs, snapRecord{at: at, prov: prov})
	})
	return recs
}

// TestCommandProvenancePropagates: a scheduled command that withdraws the
// preferred route roots a causal chain; every forwarding change of the
// resulting churn carries that command as its cause, with hop depths
// growing as the withdrawal propagates and activation stamped in sim time.
func TestCommandProvenancePropagates(t *testing.T) {
	s := scenario.RunningExample()
	net := s.Net
	ext1 := s.Graph.MustNode("ext1")
	recs := collectSnapshots(net)

	const desc = "withdraw rho1 at ext1"
	net.ScheduleCommand(10*time.Second, sim.Command{
		Node:        s.E1,
		Description: desc,
		Apply:       func(n *sim.Network) { n.WithdrawExternalRoute(ext1, s.Prefix) },
	}, 0)
	net.Run()

	if len(*recs) == 0 {
		t.Fatal("no snapshots observed")
	}
	maxHops := 0
	for _, r := range *recs {
		if !r.prov.Rooted() {
			t.Fatalf("snapshot at %v has unrooted provenance %+v", r.at, r.prov)
		}
		c := r.prov.Cause
		if c.Kind != sim.CauseCommand || c.Label != desc || c.Node != s.E1 {
			t.Fatalf("snapshot at %v blames %+v, want command %q at node %d", r.at, c, desc, s.E1)
		}
		if c.At < 10*time.Second {
			t.Fatalf("cause activated at %v, scheduled for 10s", c.At)
		}
		if r.at < c.At {
			t.Fatalf("snapshot at %v precedes its cause's activation %v", r.at, c.At)
		}
		if r.prov.Hops > maxHops {
			maxHops = r.prov.Hops
		}
	}
	// The withdrawal reaches clients only through the reflectors: the churn
	// must include multi-hop provenance, not just the egress's local change.
	if maxHops < 2 {
		t.Errorf("max hop depth %d, want ≥ 2 (egress → reflector → client)", maxHops)
	}
	if got, ok := net.CauseOf(1); !ok || got.Label != desc {
		t.Errorf("CauseOf(1) = %+v, %v; want the registered command", got, ok)
	}
}

// TestEventProvenanceAndPhase: ScheduleEventAt roots an "event" cause
// carrying the phase label active at registration.
func TestEventProvenanceAndPhase(t *testing.T) {
	s := scenario.RunningExample()
	net := s.Net
	ext6 := s.Graph.MustNode("ext6")
	recs := collectSnapshots(net)

	net.SetPhaseLabel("round 1")
	id := net.ScheduleEventAt(net.Now()+5*time.Second, "ext6 withdraws",
		func(n *sim.Network) { n.WithdrawExternalRoute(ext6, s.Prefix) })
	net.SetPhaseLabel("")
	net.Run()

	c, ok := net.CauseOf(id)
	if !ok {
		t.Fatal("registered event cause not resolvable")
	}
	if c.Kind != sim.CauseEvent || c.Label != "ext6 withdraws" || c.Phase != "round 1" {
		t.Errorf("cause = %+v, want event %q in phase %q", c, "ext6 withdraws", "round 1")
	}
	if c.Node != topology.None {
		t.Errorf("event cause node = %d, want topology.None", c.Node)
	}
	// ρ6 is nobody's best route, so the withdrawal may flip no forwarding
	// entry — but any snapshot it does produce must blame the event.
	for _, r := range *recs {
		if r.prov.Rooted() && r.prov.Cause.ID != id {
			t.Errorf("snapshot blames cause %d, only cause %d exists", r.prov.Cause.ID, id)
		}
	}
}

// TestInitialConvergenceIsUnrooted: snapshots produced by direct mutations
// outside any command or event carry zero provenance.
func TestInitialConvergenceIsUnrooted(t *testing.T) {
	s := scenario.RunningExample()
	net := s.Net
	recs := collectSnapshots(net)
	// A direct API mutation, not routed through the fault/event layer.
	net.WithdrawExternalRoute(s.Graph.MustNode("ext1"), s.Prefix)
	net.Run()
	if len(*recs) == 0 {
		t.Fatal("no snapshots observed")
	}
	for _, r := range *recs {
		if r.prov.Rooted() {
			t.Fatalf("direct mutation produced rooted provenance %+v", r.prov)
		}
		if r.prov.Cause.Kind.String() != "init" {
			t.Fatalf("unrooted kind renders %q, want init", r.prov.Cause.Kind.String())
		}
	}
}

// TestProvenanceDeterministic: the full snapshot/provenance sequence of a
// command-driven churn is byte-identical across identical runs.
func TestProvenanceDeterministic(t *testing.T) {
	render := func() string {
		s := scenario.RunningExample()
		net := s.Net
		ext1 := s.Graph.MustNode("ext1")
		recs := collectSnapshots(net)
		net.SetPhaseLabel("round 1")
		net.ScheduleCommand(10*time.Second, sim.Command{
			Node:        s.E1,
			Description: "withdraw rho1",
			Apply:       func(n *sim.Network) { n.WithdrawExternalRoute(ext1, s.Prefix) },
		}, 0)
		net.Run()
		var b strings.Builder
		for _, r := range *recs {
			fmt.Fprintln(&b, r.String())
		}
		return b.String()
	}
	a, b := render(), render()
	if a != b {
		t.Errorf("provenance sequence differs across identical runs:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, `command|"withdraw rho1"`) {
		t.Errorf("provenance sequence lacks the command cause:\n%s", a)
	}
}

// TestCauseLogLifecycle: CauseOf rebuilds every registered Cause — ID, Seq,
// kind, label, node, phase and activation time — from the compact log,
// across block boundaries and phase relabels (a label that returns after
// another included), answers false for 0 and for IDs never registered, and
// a clone starts its own log empty while the original keeps its own.
func TestCauseLogLifecycle(t *testing.T) {
	net := scenario.RunningExample().Net.Clone()
	if _, ok := net.CauseOf(1); ok {
		t.Fatal("a fresh clone resolves cause 1")
	}
	phases := []string{"setup", "round 1", "", "round 1", "between 1", "setup", "cleanup"}
	total := 3*sim.CauseChunk + 5
	var want []sim.Cause
	for i := 0; i < total; i++ {
		if i%7 == 0 {
			net.SetPhaseLabel(phases[(i/7)%len(phases)])
		}
		kind, node := sim.CauseCommand, topology.NodeID(i%5)
		if i%4 == 3 {
			kind, node = sim.CauseEvent, topology.None
		}
		label := fmt.Sprintf("cause %d", i)
		id := net.NewCause(kind, label, node)
		c := sim.Cause{ID: id, Kind: kind, Label: label, Node: node,
			Phase: phases[(i/7)%len(phases)], Seq: uint64(i), At: -1}
		if id != sim.CauseID(i+1) {
			t.Fatalf("cause %d registered as ID %d", i, id)
		}
		// Every third cause fires: its root event stamps At.
		if i%3 == 0 {
			at := net.Now() + time.Duration(i+1)*time.Millisecond
			net.ScheduleCausedAt(at, id, func(*sim.Network) {})
			c.At = at
		}
		want = append(want, c)
	}
	net.SetPhaseLabel("")
	net.Run()
	check := func(net *sim.Network, want []sim.Cause) {
		t.Helper()
		for _, w := range want {
			if got, ok := net.CauseOf(w.ID); !ok || got != w {
				t.Fatalf("CauseOf(%d) = %+v, %v; want %+v", w.ID, got, ok, w)
			}
		}
		for _, id := range []sim.CauseID{0, sim.CauseID(len(want) + 1), ^sim.CauseID(0)} {
			if c, ok := net.CauseOf(id); ok {
				t.Fatalf("CauseOf(%d) = %+v for an unregistered ID", id, c)
			}
		}
	}
	check(net, want)

	c := net.Clone()
	check(c, nil)
	c.SetPhaseLabel("round 9")
	id := c.NewCause(sim.CauseCommand, "on the clone", 2)
	check(c, []sim.Cause{{ID: id, Kind: sim.CauseCommand, Label: "on the clone", Node: 2, Phase: "round 9", Seq: 0, At: -1}})
	if id != 1 {
		t.Fatalf("the clone's first cause has ID %d", id)
	}
	check(net, want)
}
