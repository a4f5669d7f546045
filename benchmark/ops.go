package main

import (
	"context"
	"fmt"
	"time"

	"chameleon"
	"chameleon/internal/obs"
)

// mode says how a pass runs its ops.
type mode struct {
	// tr, when set, makes the pass a traced one: spans around every layer
	// call and an obs.Recorder attached to the program. Nil is the untraced
	// run the end-to-end metrics come from.
	tr *tracer
	// noMonitor drops the transient-state monitor; only exec-replay's traced
	// run has such a pass, as the reference monitor.cost_pct compares with.
	noMonitor bool
}

// workload is one of the four op mixes.
type workload interface {
	// setup builds everything the timed loop needs; the run calls it several
	// times and reports the median.
	setup(ctx context.Context) error
	// variants lists the kinds of pass a run alternates between: one for an
	// untraced run; reference, traced (and monitor-less) for a traced one.
	variants(trace bool) []mode
	// pass runs one whole cycle of ops, idx counting cycles from 0.
	pass(ctx context.Context, idx int, m mode, out *[]opRecord)
	opsPerPass() int
}

// opRecord is the outcome of one op.
type opRecord struct {
	Entry string `json:"entry"`
	// MS is the op's latency; oracles that are not part of what a user pays
	// run after the clock stops.
	MS float64 `json:"ms"`
	// Sampled ops feed op_p50_ms and op_tail_ms (storm builds do not).
	Sampled bool `json:"sampled"`
	// Phases is 2 + R for an op that plans or replays a plan, 1 for a change
	// applied directly.
	Phases  float64 `json:"phases"`
	Faulted bool    `json:"faulted,omitempty"`
	// Err is why the op failed; empty for a correct op.
	Err string `json:"err,omitempty"`
	// Digest identifies the planning outcome (plan workloads).
	Digest string `json:"digest,omitempty"`
	// Counts are the op's layer counts, keyed by metric name; traced ops only.
	Counts map[string]float64 `json:"counts,omitempty"`
	// id is the op's number in the tracer.
	id int
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func (r opRecord) fail(start time.Time, stage string, err error) opRecord {
	r.MS = msSince(start)
	r.Err = fmt.Sprintf("%s: %v", stage, err)
	return r
}

// checkClean is the oracle of an op that must end verified-clean: no flagged
// execution, no monitor violation, Verify nil.
func (r *opRecord) checkClean(res *chameleon.ExecResult, mon *chameleon.Monitor, verr error) {
	switch {
	case verr != nil:
		r.Err = fmt.Sprintf("verify: %v", verr)
	case res.Committed || res.Recovery.Escalations > 0:
		r.Err = fmt.Sprintf("execution flagged on a fault-free run: committed=%v recovery=%+v", res.Committed, res.Recovery)
	case mon != nil && mon.ViolationCount() > 0:
		r.Err = fmt.Sprintf("monitor: %d transient violations", mon.ViolationCount())
	}
}

// execCounts fills the per-op counts every executing op shares.
func execCounts(c map[string]float64, res *chameleon.ExecResult, mon *chameleon.Monitor, orec *obs.Recorder) {
	c["runtime.commands_pushed"] = float64(orec.Counter(obs.CtrExecCommandsPushed))
	c["runtime.retries"] = float64(res.Recovery.Retries)
	// Whole nanoseconds, so that the sum over ops is exact; perLayer converts.
	c["runtime.sim_seconds"] = float64(res.Duration())
	c["sim.events"] = float64(orec.Counter(obs.CtrSimEvents))
	c["sim.bgp_messages"] = float64(orec.Counter(obs.CtrBGPUpdates) + orec.Counter(obs.CtrBGPWithdraws))
	c["bgp.table_entries"] = float64(res.MaxTableEntries)
	if mon != nil {
		c["monitor.states_checked"] = float64(mon.Timeline().StatesChecked)
		c["monitor.violations"] = float64(mon.ViolationCount())
	}
	c["obs.spans"] = float64(orec.NumSpans())
}
