package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"chameleon"
	"chameleon/internal/chaos"
	"chameleon/internal/monitor"
	"chameleon/internal/obs"
	"chameleon/internal/scenario"
	"chameleon/internal/sim"
)

// faultEvery is the fault period: op k of pass p runs under injected command
// drops when (k+p) is a multiple of it, so over faultEvery passes every plan
// is replayed faulted exactly once and counts per op repeat whatever number
// of such cycles fits the time box.
const faultEvery = 4

// replayWorkload is exec-replay: the transient itself. Set-up plans every
// entry once; an op clones the converged network and executes the plan on the
// clone under a fresh monitor.
type replayWorkload struct {
	seed    uint64
	entries []entry
	plans   []*chameleon.Reconfiguration
}

func newReplayWorkload(cfg runConfig) (*replayWorkload, error) {
	limit := 0
	if cfg.Smoke {
		limit = 3
	}
	entries, err := loadEntries("exec-replay", limit)
	return &replayWorkload{seed: cfg.Seed, entries: entries}, err
}

func (w *replayWorkload) variants(trace bool) []mode {
	if !trace {
		return []mode{{}}
	}
	return []mode{{}, {tr: newTracer()}, {noMonitor: true}}
}

func (w *replayWorkload) setup(ctx context.Context) error {
	w.plans = w.plans[:0]
	for _, e := range w.entries {
		s, err := scenario.CaseStudy(e.Topology, scenarioConfig(e, nil))
		if err != nil {
			return fmt.Errorf("%s: %w", e, err)
		}
		r, err := chameleon.PlanCtx(ctx, s, chameleon.PlanOptions{ClassParallelism: 1})
		if err != nil {
			return fmt.Errorf("%s: %w", e, err)
		}
		w.plans = append(w.plans, r)
	}
	return nil
}

// One pass is faultEvery sweeps over the plans, so that it contains every
// (plan, faulted or not) combination the same number of times.
func (w *replayWorkload) opsPerPass() int { return faultEvery * len(w.entries) }

func (w *replayWorkload) pass(ctx context.Context, idx int, m mode, out *[]opRecord) {
	for sweep := 0; sweep < faultEvery; sweep++ {
		order := rand.New(rand.NewPCG(w.seed, uint64(idx*faultEvery+sweep))).Perm(len(w.plans))
		for _, k := range order {
			*out = append(*out, traced(m.tr, func() opRecord { return w.op(ctx, k, (k+sweep)%faultEvery == 0, m) }))
		}
	}
}

func (w *replayWorkload) op(ctx context.Context, k int, faulted bool, m mode) opRecord {
	base := w.plans[k]
	rec := opRecord{Entry: w.entries[k].String(), Sampled: true, Faulted: faulted, Phases: float64(2 + base.Schedule.R)}
	var orec *obs.Recorder
	if m.tr != nil {
		orec = obs.New()
		rec.Counts = map[string]float64{}
	}
	start := time.Now()

	end := m.tr.begin("sim.clone")
	net := base.Scenario.Net.Clone()
	end()
	// The plan's commands are closures over node IDs, so the same plan runs
	// on any clone: point a copy of the reconfiguration at it.
	sc := *base.Scenario
	sc.Net = net
	r := *base
	r.Scenario = &sc

	var mon *chameleon.Monitor
	if !m.noMonitor {
		end = m.tr.begin("monitor.new")
		mon = chameleon.NewMonitor(chameleon.MonitorConfig{Name: "bench",
			Invariants: chameleon.DefaultInvariants(sc.Graph), Recorder: orec})
		mon.Track(monitor.FromSpec("spec", r.Spec))
		end()
	}
	if faulted {
		// Drops only, and at most two per command, so the executor's three
		// retries always land: the ladder runs, the op still ends clean.
		net.SetFaultInjector(chaos.NewInjector(chaos.InjectorConfig{
			Seed:             sim.DeriveSeed(w.seed, uint64(k)),
			CommandRate:      0.3,
			CommandKinds:     []sim.FaultKind{sim.FaultDrop},
			MaxAttemptFaults: 2,
		}))
	}
	end = m.tr.begin("runtime.execute")
	res, err := r.ExecuteCtx(ctx, chameleon.ExecOptions{Seed: w.seed, Monitor: mon, Recorder: orec})
	end()
	if err != nil {
		return rec.fail(start, "execute", err)
	}
	end = m.tr.begin("spec.verify")
	verr := r.Verify(res)
	end()
	rec.MS = msSince(start)

	// A faulted op may end flagged (the controller gave up visibly); what it
	// may never do is end unflagged with a violation.
	flagged := res.Committed || res.Recovery.Escalations > 0
	if !(faulted && flagged) {
		rec.checkClean(res, mon, verr)
	}
	if m.tr != nil {
		execCounts(rec.Counts, res, mon, orec)
	}
	return rec
}
