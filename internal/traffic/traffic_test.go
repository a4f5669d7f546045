package traffic

import (
	"testing"

	"chameleon/internal/fwd"
	"chameleon/internal/topology"
)

// states: 3 nodes; node 2 is the egress in stA; in stB node 0 drops.
var (
	stA = fwd.State{1, 2, fwd.External}
	stB = fwd.State{fwd.Drop, 2, fwd.External}
	// stC: node 0 exits via a different egress (node 0 itself).
	stC = fwd.State{fwd.External, 2, fwd.External}
)

func trace(pairs ...interface{}) *fwd.Trace {
	tr := &fwd.Trace{}
	for i := 0; i < len(pairs); i += 2 {
		tr.Append(pairs[i].(float64), pairs[i+1].(fwd.State))
	}
	return tr
}

func TestSteadyDelivery(t *testing.T) {
	tr := trace(0.0, stA)
	m := Measure(tr, []topology.NodeID{0, 1, 2}, nil, Options{RatePerNode: 100, Step: 0.5, From: 0, To: 2})
	if !m.Clean() {
		t.Errorf("steady state should be clean: dropped=%v viol=%v", m.TotalDropped, m.TotalViolations)
	}
	for _, s := range m.Samples {
		if s.Delivered != 300 {
			t.Errorf("t=%v delivered %v, want 300", s.Time, s.Delivered)
		}
		if s.PerEgress[2] != 300 {
			t.Errorf("t=%v egress rate %v, want 300", s.Time, s.PerEgress[2])
		}
	}
}

func TestDropWindowIntegration(t *testing.T) {
	// Node 0 drops during [1, 2).
	tr := trace(0.0, stA, 1.0, stB, 2.0, stA)
	m := Measure(tr, []topology.NodeID{0, 1, 2}, nil, Options{RatePerNode: 100, Step: 0.1, From: 0, To: 3})
	if m.TotalDropped < 80 || m.TotalDropped > 120 {
		t.Errorf("TotalDropped = %v, want ≈ 100 (1s at 100 pkt/s)", m.TotalDropped)
	}
	if m.ViolationSeconds < 0.8 || m.ViolationSeconds > 1.3 {
		t.Errorf("ViolationSeconds = %v, want ≈ 1", m.ViolationSeconds)
	}
}

func TestWaypointSwitchOnceRule(t *testing.T) {
	// Four nodes: traffic from 0 must traverse waypoint 1 before its
	// switch and waypoint 2 afterwards.
	viaBefore := fwd.State{1, 3, fwd.Drop, fwd.External} // 0→1→3→d
	viaAfter := fwd.State{2, fwd.Drop, 3, fwd.External}  // 0→2→3→d
	rules := map[topology.NodeID]*WaypointRule{
		0: {Before: 1, After: 2},
	}
	// Legal single switch: no violation.
	tr := trace(0.0, viaBefore, 1.0, viaAfter)
	m := Measure(tr, []topology.NodeID{0}, rules, Options{RatePerNode: 10, Step: 0.25, From: 0, To: 2})
	if m.TotalViolations != 0 {
		t.Errorf("legal switch flagged: %v", m.TotalViolations)
	}
	// Switching back to the Before path after the switch IS a violation.
	tr2 := trace(0.0, viaBefore, 1.0, viaAfter, 2.0, viaBefore)
	m2 := Measure(tr2, []topology.NodeID{0}, rules, Options{RatePerNode: 10, Step: 0.25, From: 0, To: 3})
	if m2.TotalViolations == 0 {
		t.Error("switch-back not flagged")
	}
	// A path that merely CROSSES the before-waypoint while heading to a
	// different egress still satisfies wp(n, Before): Eq. 4 constrains
	// traversal, not the exit point.
	crossBoth := fwd.State{1, 2, 3, fwd.External} // 0→1→2→3→d traverses both
	tr3 := trace(0.0, crossBoth)
	m3 := Measure(tr3, []topology.NodeID{0}, rules, Options{RatePerNode: 10, Step: 0.5, From: 0, To: 1})
	if m3.TotalViolations != 0 {
		t.Error("traversal-only path wrongly flagged")
	}
}

func TestWaypointThirdEgressViolation(t *testing.T) {
	rules := map[topology.NodeID]*WaypointRule{
		1: {Before: 0, After: 0}, // node 1 must always exit via 0
	}
	tr := trace(0.0, stA) // node 1 exits via 2
	m := Measure(tr, []topology.NodeID{1}, rules, Options{RatePerNode: 10, Step: 0.5, From: 0, To: 1})
	if m.TotalViolations == 0 {
		t.Error("wrong egress not flagged")
	}
}

func TestEgressesEnumeration(t *testing.T) {
	tr := trace(0.0, stA, 1.0, stC)
	m := Measure(tr, []topology.NodeID{0, 1}, nil, Options{RatePerNode: 1, Step: 0.5, From: 0, To: 2})
	egs := m.Egresses()
	if len(egs) != 2 || egs[0] != 0 || egs[1] != 2 {
		t.Errorf("Egresses = %v, want [0 2]", egs)
	}
}

func TestDefaultsApplied(t *testing.T) {
	tr := trace(0.0, stA)
	m := Measure(tr, []topology.NodeID{0}, nil, Options{})
	if len(m.Samples) == 0 {
		t.Fatal("no samples with default options")
	}
	// A zero rate has no default: it counts no traffic.
	if s := m.Samples[0]; s.Delivered != 0 || s.Dropped != 0 {
		t.Errorf("zero rate counted delivered %v, dropped %v; want 0, 0", s.Delivered, s.Dropped)
	}
}

func TestEmptyTraceDropsEverything(t *testing.T) {
	m := Measure(&fwd.Trace{}, []topology.NodeID{0}, nil, Options{RatePerNode: 5, Step: 1, From: 0, To: 2})
	if m.TotalDropped == 0 {
		t.Error("empty trace must count as dropped")
	}
}

func TestLoopCountsAsDrop(t *testing.T) {
	loop := fwd.State{1, 0, fwd.External}
	tr := trace(0.0, loop)
	m := Measure(tr, []topology.NodeID{0, 1}, nil, Options{RatePerNode: 10, Step: 0.5, From: 0, To: 1})
	if m.TotalDropped == 0 {
		t.Error("forwarding loop must count as dropped traffic")
	}
}
