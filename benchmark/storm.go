package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"chameleon/internal/obs"
	"chameleon/internal/scenario"
)

// stormWorkload is prefix-storm: a point write (what-if probe on a clone of a
// large converged table) beside a bulk write (batched storm) beside
// per-message delivery (route-by-route storm), in one fixed cycle.
type stormWorkload struct {
	seed                 uint64
	basePrefixes, probes int
	buildPrefixes        int
	base                 *scenario.Storm
}

func newStormWorkload(cfg runConfig) *stormWorkload {
	w := &stormWorkload{seed: cfg.Seed, basePrefixes: 20000, probes: 10, buildPrefixes: 10000}
	if cfg.Smoke {
		w.basePrefixes, w.probes, w.buildPrefixes = 2000, 3, 1000
	}
	return w
}

func (w *stormWorkload) variants(trace bool) []mode {
	if !trace {
		return []mode{{}}
	}
	return []mode{{}, {tr: newTracer()}}
}

func (w *stormWorkload) setup(ctx context.Context) error {
	st, err := w.build(w.basePrefixes, true, nil)
	w.base = st
	return err
}

func (w *stormWorkload) opsPerPass() int { return w.probes + 2 }

func (w *stormWorkload) build(prefixes int, batched bool, orec *obs.Recorder) (*scenario.Storm, error) {
	st, err := scenario.BuildStorm(scenario.StormConfig{Prefixes: prefixes, Seed: w.seed, Batched: batched, Recorder: orec})
	if err != nil {
		return nil, err
	}
	if got := st.Net.TableEntries(); got < prefixes {
		return nil, fmt.Errorf("storm under-converged: %d table entries < %d prefixes", got, prefixes)
	}
	return st, nil
}

func (w *stormWorkload) pass(ctx context.Context, idx int, m mode, out *[]opRecord) {
	rng := rand.New(rand.NewPCG(w.seed, uint64(idx)))
	for i := 0; i < w.probes; i++ {
		p := rng.IntN(len(w.base.Prefixes))
		*out = append(*out, traced(m.tr, func() opRecord { return w.probe(p, m) }))
	}
	for _, batched := range []bool{true, false} {
		*out = append(*out, traced(m.tr, func() opRecord { return w.buildOp(batched, m) }))
	}
}

// probe asks what withdrawing one prefix would do, on a clone, and checks
// that the clone lost the route and the base kept it.
func (w *stormWorkload) probe(i int, m mode) opRecord {
	rec := opRecord{Entry: "probe", Sampled: true, Phases: 1}
	var orec *obs.Recorder
	if m.tr != nil {
		orec = obs.New()
		rec.Counts = map[string]float64{}
	}
	p := w.base.Prefixes[i]
	start := time.Now()
	end := m.tr.begin("sim.clone")
	c := w.base.Net.Clone()
	end()
	c.SetRecorder(orec)
	end = m.tr.begin("sim.whatif")
	c.WithdrawExternalRoute(w.base.Ext, p)
	c.Run()
	end()
	rec.MS = msSince(start)
	if _, ok := c.Best(w.base.Border, p); ok {
		rec.Err = fmt.Sprintf("prefix %d still routed in the clone after its withdrawal", p)
	}
	if _, ok := w.base.Net.Best(w.base.Border, p); !ok {
		rec.Err = fmt.Sprintf("what-if probe of prefix %d leaked into the base network", p)
	}
	if m.tr != nil {
		stormCounts(rec.Counts, c.TableEntries(), orec)
	}
	return rec
}

func (w *stormWorkload) buildOp(batched bool, m mode) opRecord {
	rec := opRecord{Entry: "storm-routes", Phases: 1}
	name := "sim.storm_routes"
	if batched {
		rec.Entry, name = "storm-batched", "sim.storm_batched"
	}
	var orec *obs.Recorder
	if m.tr != nil {
		orec = obs.New()
		rec.Counts = map[string]float64{}
	}
	start := time.Now()
	end := m.tr.begin(name)
	st, err := w.build(w.buildPrefixes, batched, orec)
	end()
	if err != nil {
		return rec.fail(start, "build", err)
	}
	rec.MS = msSince(start)
	if m.tr != nil {
		stormCounts(rec.Counts, st.Net.TableEntries(), orec)
		sessions := 0
		for _, n := range st.Graph.Nodes() {
			sessions += len(st.Net.Sessions(n.ID))
		}
		// Every route crosses every session once (each is counted from
		// both ends above).
		rec.Counts[routesDelivered] = float64(w.buildPrefixes * sessions / 2)
	}
	return rec
}

// routesDelivered is a helper count behind bgp.routes_per_s, not a metric.
const routesDelivered = "storm routes delivered"

func stormCounts(c map[string]float64, tableEntries int, orec *obs.Recorder) {
	c["sim.events"] = float64(orec.Counter(obs.CtrSimEvents))
	c["sim.bgp_messages"] = float64(orec.Counter(obs.CtrBGPUpdates) + orec.Counter(obs.CtrBGPWithdraws))
	c["bgp.table_entries"] = float64(tableEntries)
	c["obs.spans"] = float64(orec.NumSpans())
}
