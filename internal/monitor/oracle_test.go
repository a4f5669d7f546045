package monitor_test

import (
	"bytes"
	"context"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"chameleon"
	"chameleon/internal/bgp"
	"chameleon/internal/chaos"
	"chameleon/internal/fwd"
	"chameleon/internal/monitor"
	"chameleon/internal/plan"
	"chameleon/internal/runtime"
	"chameleon/internal/scenario"
	"chameleon/internal/sim"
)

// execReplayTopologies reads the plan list of the repo benchmark's
// exec-replay workload: one topology per line, '#' starts a comment.
func execReplayTopologies(t *testing.T) []string {
	data, err := os.ReadFile("../../benchmark/workloads/exec-replay.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(string(data), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		if line = strings.TrimSpace(line); line != "" {
			out = append(out, line)
		}
	}
	return out
}

// twins is a monitor tracking the package's invariants and one tracking
// the same checks re-wrapped as Invariant literals, which it runs on every
// snapshot, repeated states included. Both observe one snapshot stream.
type twins struct {
	t         *testing.T
	label     string
	once, all *monitor.Monitor
	diverged  bool
}

func newTwins(t *testing.T, label string, invs []monitor.Invariant) *twins {
	literals := make([]monitor.Invariant, len(invs))
	for i, inv := range invs {
		literals[i] = monitor.Invariant{Name: inv.Name, Check: inv.Check}
	}
	return &twins{
		t:     t,
		label: label,
		once:  monitor.New(monitor.Config{Name: "oracle", Invariants: invs}),
		all:   monitor.New(monitor.Config{Name: "oracle", Invariants: literals}),
	}
}

// bind installs a hook feeding both monitors and comparing their open
// violations after every snapshot: an interval's end must not lag behind
// while it stays open, even though closing it would overwrite the end.
func (tw *twins) bind(net *sim.Network) func() {
	tw.once.Bind(net)
	tw.all.Bind(net)
	net.SetSnapshotHook(func(at time.Duration, p bgp.Prefix, st fwd.State, prov sim.Provenance) {
		tw.once.ObserveProvenance(at, p, st, prov)
		tw.all.ObserveProvenance(at, p, st, prov)
		if a, b := tw.once.OpenViolations(), tw.all.OpenViolations(); !tw.diverged && !reflect.DeepEqual(a, b) {
			tw.diverged = true
			tw.t.Errorf("%s: open violations differ at %v\n judged once: %+v\n every state: %+v", tw.label, at, a, b)
		}
	})
	return func() { net.SetSnapshotHook(nil) }
}

func (tw *twins) setPhase(name string) {
	tw.once.SetPhase(name)
	tw.all.SetPhase(name)
}

// finish closes both timelines and requires them byte-identical with the
// same state count. It returns the number of violations.
func (tw *twins) finish(at time.Duration) int {
	var jsonl [2]bytes.Buffer
	var tls [2]*monitor.Timeline
	for i, m := range []*monitor.Monitor{tw.once, tw.all} {
		tls[i] = m.Finish(at)
		if err := tls[i].WriteJSONL(&jsonl[i]); err != nil {
			tw.t.Fatal(err)
		}
	}
	if tls[0].StatesChecked != tls[1].StatesChecked || !bytes.Equal(jsonl[0].Bytes(), jsonl[1].Bytes()) {
		tw.t.Errorf("%s: timelines differ\n-- judged once (%d states) --\n%s-- every state (%d states) --\n%s",
			tw.label, tls[0].StatesChecked, jsonl[0].String(), tls[1].StatesChecked, jsonl[1].String())
	}
	return len(tls[0].Violations)
}

// TestRepeatedStatesJudgedOnce is the oracle for skipping invariant checks
// on a state equal to its prefix's previous one. Every exec-replay plan of
// the repo benchmark runs clean and under injected command drops, as the
// benchmark runs it, and every scenario's original commands run unplanned,
// all at once, which violates reachability while states repeat. One
// snapshot stream feeds twin monitors: the package's invariants, and the
// same checks as literals. Open violations must agree after every
// snapshot, and the timelines must be byte-identical.
func TestRepeatedStatesJudgedOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("plans 29 topologies")
	}
	const seed = 7
	ctx := context.Background()
	violations := 0
	for k, topo := range execReplayTopologies(t) {
		s, err := scenario.CaseStudy(topo, scenario.Config{Seed: seed})
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		r, err := chameleon.PlanCtx(ctx, s, chameleon.PlanOptions{ClassParallelism: 1})
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		invs := append(chameleon.DefaultInvariants(s.Graph), monitor.FromSpec("spec", r.Spec))
		mp := r.Multi
		if mp == nil {
			mp = plan.Single(r.Plan)
		}

		for _, faulted := range []bool{false, true} {
			label := topo + " (clean)"
			if faulted {
				label = topo + " (faulted)"
			}
			tw := newTwins(t, label, invs)
			net := s.Net.Clone()
			if faulted {
				net.SetFaultInjector(chaos.NewInjector(chaos.InjectorConfig{
					Seed:             sim.DeriveSeed(seed, uint64(k)),
					CommandRate:      0.3,
					CommandKinds:     []sim.FaultKind{sim.FaultDrop},
					MaxAttemptFaults: 2,
				}))
			}
			// The facade's ExecuteCtx with a monitor, for two monitors.
			ex := runtime.NewExecutor(net, runtime.Options{Seed: seed, PhaseObserver: tw.setPhase, Convergence: tw.once.Gate()})
			unbind := tw.bind(net)
			if _, err := ex.ExecuteMultiCtx(ctx, mp); err != nil {
				t.Fatalf("%s: %v", tw.label, err)
			}
			unbind()
			violations += tw.finish(net.Now())
		}

		tw := newTwins(t, topo+" (unplanned)", invs)
		net := s.Net.Clone()
		unbind := tw.bind(net)
		for _, cmd := range s.Commands {
			cmd.Apply(net)
		}
		net.Run()
		unbind()
		violations += tw.finish(net.Now())
	}
	if violations == 0 {
		t.Error("no run violated an invariant: the oracle never compares an open violation")
	}
}
