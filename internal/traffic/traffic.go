// Package traffic measures packet-level behavior over timed forwarding
// traces, reproducing the paper's testbed methodology (§6): traffic is
// injected at a constant rate at every node towards the destination, and
// the egress where each packet leaves (or the fact that it was dropped or
// violated a waypoint requirement) is recorded over time. This generates
// the throughput/violation series of Figs. 1, 6, 11 and 12.
package traffic

import (
	"sort"

	"chameleon/internal/fwd"
	"chameleon/internal/topology"
)

// Options configure the measurement.
type Options struct {
	// RatePerNode is the injection rate at each node in packets/second;
	// zero counts no traffic. The paper's 16.5 kpkt/s over 11 nodes
	// corresponds to 1500.
	RatePerNode float64
	// Step is the sampling interval in seconds.
	Step float64
	// From/To bound the measured window (seconds); To ≤ From means
	// "until the last trace state plus one step".
	From, To float64
}

// Sample is one measurement instant.
type Sample struct {
	Time float64
	// PerEgress maps egress router → delivery rate (pkt/s) through it.
	PerEgress map[topology.NodeID]float64
	// Delivered is the total delivery rate; Dropped the black-holed rate
	// (includes forwarding loops).
	Delivered, Dropped float64
	// WaypointViolations is the rate of packets that reached the
	// destination without satisfying their waypoint requirement.
	WaypointViolations float64
}

// WaypointRule states the per-node waypoint requirement of the §6
// specification (Eq. 4): traffic from node n must traverse waypoint Before
// until the node's (single) switch, and traverse After afterwards; a switch
// back counts as a violation. Traversal matches the specification's wp()
// predicate — the packet's path crosses the waypoint router — not the exit
// egress: a path may legally cross e1 on its way to a different egress.
type WaypointRule struct {
	Before, After topology.NodeID
}

// Measurement is the full time series plus aggregate counters.
type Measurement struct {
	Samples []Sample
	// TotalDropped and TotalViolations integrate rates over time
	// (packets).
	TotalDropped, TotalViolations float64
	// ViolationSeconds is the total time during which any violation or
	// drop was occurring.
	ViolationSeconds float64
}

// Measure samples the trace for the given source nodes. rules may be nil
// (no waypoint requirements).
func Measure(tr *fwd.Trace, sources []topology.NodeID, rules map[topology.NodeID]*WaypointRule, opts Options) *Measurement {
	if opts.Step == 0 {
		opts.Step = 0.1
	}
	from := opts.From
	to := opts.To
	if to <= from {
		if len(tr.Times) > 0 {
			to = tr.Times[len(tr.Times)-1] + opts.Step
		} else {
			to = from + opts.Step
		}
	}
	// switched tracks whether a node has left its Before egress already.
	switched := make(map[topology.NodeID]bool)
	m := &Measurement{}
	for t := from; t <= to+1e-9; t += opts.Step {
		st := tr.At(t)
		s := Sample{Time: t, PerEgress: make(map[topology.NodeID]float64)}
		anyBad := false
		for _, n := range sources {
			if st == nil {
				s.Dropped += opts.RatePerNode
				anyBad = true
				continue
			}
			_, term := st.Path(n)
			if term != fwd.External {
				s.Dropped += opts.RatePerNode
				anyBad = true
				continue
			}
			eg := st.Egress(n)
			s.PerEgress[eg] += opts.RatePerNode
			s.Delivered += opts.RatePerNode
			if rule := rules[n]; rule != nil {
				viol := false
				viaBefore := st.Waypoint(n, rule.Before)
				viaAfter := st.Waypoint(n, rule.After)
				if !switched[n] {
					if !viaBefore {
						if viaAfter {
							switched[n] = true
						} else {
							viol = true
						}
					}
				} else if !viaAfter {
					viol = true // switched back or to a third path
				}
				if viol {
					s.WaypointViolations += opts.RatePerNode
					anyBad = true
				}
			}
		}
		m.Samples = append(m.Samples, s)
		m.TotalDropped += s.Dropped * opts.Step
		m.TotalViolations += s.WaypointViolations * opts.Step
		if anyBad {
			m.ViolationSeconds += opts.Step
		}
	}
	return m
}

// Egresses returns all egress routers that appear in the measurement,
// sorted.
func (m *Measurement) Egresses() []topology.NodeID {
	seen := make(map[topology.NodeID]bool)
	for _, s := range m.Samples {
		for e := range s.PerEgress {
			seen[e] = true
		}
	}
	var out []topology.NodeID
	for e := range seen {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clean reports whether no packet was ever dropped or misrouted.
func (m *Measurement) Clean() bool {
	return m.TotalDropped == 0 && m.TotalViolations == 0
}
