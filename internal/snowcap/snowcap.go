// Package snowcap implements the Snowcap baseline [28] used throughout the
// paper's comparison: an in-place reconfiguration system that orders
// configuration commands so that every *steady* state between commands
// satisfies the specification — but provides no guarantees about the
// transient states BGP explores while converging after each command. For
// single-command reconfigurations (the paper's §6/§7 scenario) Snowcap
// simply pushes the command to the network; that push is all this package
// implements.
package snowcap

import (
	"fmt"
	"time"

	"chameleon/internal/bgp"
	"chameleon/internal/monitor"
	"chameleon/internal/sim"
)

// Result describes one Snowcap reconfiguration run.
type Result struct {
	// Start and End bound the reconfiguration in simulated time.
	Start, End time.Duration
	// Order is the command order applied (indices into the input).
	Order []int
	// Timeline, from ApplyMonitored, records the transient invariant
	// violations the steady-state-only ordering cannot see, and
	// ViolationTime is their union duration — the paper's Fig. 1 measure
	// of what Snowcap's guarantees miss.
	Timeline      *monitor.Timeline
	ViolationTime time.Duration
}

// Duration returns the reconfiguration time.
func (r *Result) Duration() time.Duration { return r.End - r.Start }

// Apply performs the reconfiguration the Snowcap way: commands are pushed
// in the given order, each after the previous one's convergence, with a
// single router-command latency per command. Transient states are left to
// free-running BGP convergence — exactly what Fig. 1 measures.
func Apply(net *sim.Network, cmds []sim.Command, order []int, latency time.Duration) (*Result, error) {
	if !net.Converged() {
		return nil, fmt.Errorf("snowcap: network not converged")
	}
	res := &Result{Start: net.Now(), Order: order}
	for _, idx := range order {
		if idx < 0 || idx >= len(cmds) {
			return nil, fmt.Errorf("snowcap: order index %d out of range", idx)
		}
		cmd := cmds[idx]
		// Root a causal chain per command so transient violations during
		// the free-running convergence are attributed to it.
		cause := net.NewCause(sim.CauseCommand, cmd.Description, cmd.Node)
		net.ScheduleCausedAt(net.Now()+latency, cause, func(n *sim.Network) { cmd.Apply(n) })
		net.Run() // free-running convergence; no transient control
	}
	res.End = net.Now()
	return res, nil
}

// ApplyMonitored is Apply under the transient-state monitor: the monitor
// observes every forwarding snapshot of the free-running convergence after
// each command (anchored on the pre-reconfiguration state of prefix), and
// the result carries the completed violation timeline and its union
// duration. Snowcap's behavior is unchanged — the monitor only measures
// the transient violations the baseline's steady-state checks miss.
func ApplyMonitored(net *sim.Network, prefix bgp.Prefix, cmds []sim.Command, order []int, latency time.Duration, m *monitor.Monitor) (*Result, error) {
	unbind := m.Bind(net)
	defer unbind()
	net.RecordInitialState(prefix)
	res, err := Apply(net, cmds, order, latency)
	if err != nil {
		return nil, err
	}
	tl := m.Finish(net.Now())
	res.Timeline = tl
	res.ViolationTime = tl.TotalViolation()
	return res, nil
}
