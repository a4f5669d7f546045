package chameleon_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"chameleon"
	"chameleon/internal/fwd"
	"chameleon/internal/obs"
	"chameleon/internal/topology"
)

// tracedRun plans and executes the running example with a fresh recorder
// and returns everything a reconciliation check needs.
func tracedRun(t *testing.T) (*chameleon.Recorder, *chameleon.Reconfiguration, *chameleon.ExecResult) {
	t.Helper()
	s := chameleon.RunningExample()
	rec := chameleon.NewRecorder()
	r, err := chameleon.PlanCtx(context.Background(), s, chameleon.PlanOptions{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.ExecuteCtx(context.Background(), chameleon.ExecOptions{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(res); err != nil {
		t.Fatal(err)
	}
	return rec, r, res
}

// TestTraceReconciliation runs the running example through the traced
// facade and reconciles the recorded spans and counters against the
// planner's and executor's own reports: the span tree is well-formed, one
// round span exists per scheduled round, solver counters equal the
// scheduler's stats, and the fault-free command-push counter equals the
// executor's CommandsApplied.
func TestTraceReconciliation(t *testing.T) {
	rec, r, res := tracedRun(t)
	if err := rec.Validate(); err != nil {
		t.Fatalf("trace ill-formed: %v", err)
	}

	rounds := 0
	for _, name := range rec.SpanNames() {
		var k int
		if _, err := fmt.Sscanf(name, "round %d", &k); err == nil {
			rounds++
		}
	}
	if rounds != r.Schedule.R {
		t.Errorf("trace has %d round spans, schedule has R=%d", rounds, r.Schedule.R)
	}

	counters := rec.Counters()
	if got, want := counters[obs.CtrMILPNodes], r.Schedule.Stats.SolverNodes; got != want {
		t.Errorf("%s = %d, scheduler stats say %d", obs.CtrMILPNodes, got, want)
	}
	if got, want := counters[obs.CtrMILPPropagations], r.Schedule.Stats.Propagations; got != want {
		t.Errorf("%s = %d, scheduler stats say %d", obs.CtrMILPPropagations, got, want)
	}
	if got, want := counters[obs.CtrSchedRoundsTried], int64(r.Schedule.Stats.RoundsTried); got != want {
		t.Errorf("%s = %d, scheduler stats say %d", obs.CtrSchedRoundsTried, got, want)
	}
	// No fault injector: every plan command is pushed exactly once, so the
	// push counter must equal the executor's applied-command count.
	if got, want := counters[obs.CtrExecCommandsPushed], int64(res.CommandsApplied); got != want {
		t.Errorf("%s = %d, executor applied %d", obs.CtrExecCommandsPushed, got, want)
	}
	if got, want := counters[obs.CtrSessionsOpened], int64(len(r.Plan.TempSessions)); got != want {
		t.Errorf("%s = %d, plan has %d temp sessions", obs.CtrSessionsOpened, got, want)
	}
	if got, want := counters[obs.CtrSessionsClosed], int64(len(r.Plan.TempSessions)); got != want {
		t.Errorf("%s = %d, plan has %d temp sessions", obs.CtrSessionsClosed, got, want)
	}
}

// TestTraceRunToRunDeterminism: two identical traced runs produce
// byte-identical JSONL, counter totals included — the contract that makes
// traces diffable across machines and CI runs.
func TestTraceRunToRunDeterminism(t *testing.T) {
	dump := func() string {
		rec, _, _ := tracedRun(t)
		var tr bytes.Buffer
		if err := rec.WriteJSONL(&tr); err != nil {
			t.Fatal(err)
		}
		return tr.String()
	}
	if tr1, tr2 := dump(), dump(); tr1 != tr2 {
		t.Errorf("trace JSONL differs between identical runs:\n%s\nvs\n%s", tr1, tr2)
	}
}

// TestExportFormatsPinned pins every export format of one recording by
// SHA-256: the traced running example, executed under a monitor whose
// probe invariant fails on every other snapshot (so violations exist, and
// the trace's monitor_violations total counts them). Run bundles carry only
// the trace; this test also holds the flame summary, so a change to the obs
// layer that means to keep its artifacts must leave both digests as they
// are.
func TestExportFormatsPinned(t *testing.T) {
	s := chameleon.RunningExample()
	rec := chameleon.NewRecorder()
	r, err := chameleon.PlanCtx(context.Background(), s, chameleon.PlanOptions{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	fails := false
	probe := chameleon.MonitorInvariant{Name: "probe", Check: func(fwd.State) (bool, []topology.NodeID) {
		fails = !fails
		return !fails, nil
	}}
	mon := chameleon.NewMonitor(chameleon.MonitorConfig{
		Name:       "pinned",
		Invariants: append(chameleon.DefaultInvariants(s.Graph), probe),
		Recorder:   rec,
	})
	res, err := r.ExecuteCtx(context.Background(), chameleon.ExecOptions{Recorder: rec, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(res); err != nil {
		t.Fatal(err)
	}
	if n := len(mon.Timeline().Violations); n == 0 || rec.Counter(obs.CtrMonitorViolations) != int64(n) {
		t.Fatalf("the trace counts %d violations, the timeline %d: violations must reach the exports",
			rec.Counter(obs.CtrMonitorViolations), n)
	}

	outputs := map[string]func(*bytes.Buffer) error{
		"trace.jsonl": func(b *bytes.Buffer) error { return rec.WriteJSONL(b) },
		"flame":       func(b *bytes.Buffer) error { _, err := b.WriteString(rec.FlameSummary()); return err },
	}
	want := map[string]string{
		"trace.jsonl": "eb18a2b2193e00a40d1ed1c46db3d181a28158678811e55d31b9766c3123b33f",
		"flame":       "a0765c9c0daba62f9a7bca77a336433d633e63f22a9fcea5c58423ca5b69b97c",
	}
	for name, write := range outputs {
		var b bytes.Buffer
		if err := write(&b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if b.Len() == 0 {
			t.Errorf("%s: empty output", name)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b.Bytes())); got != want[name] {
			t.Errorf("%s: SHA-256 %s, want %s", name, got, want[name])
		}
	}
}

// TestPlanCtxPreCancelled: a cancelled context fails planning immediately.
func TestPlanCtxPreCancelled(t *testing.T) {
	s := chameleon.RunningExample()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := chameleon.PlanCtx(ctx, s, chameleon.PlanOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("PlanCtx = %v, want context.Canceled", err)
	}
}

// pollCancelCtx is a context that cancels itself on the k-th poll of Done:
// a cancellation that lands at the same point of the callee's work on every
// run, whatever the machine or the scheduler does.
type pollCancelCtx struct {
	context.Context
	left atomic.Int64
	done chan struct{}
}

func cancelOnPoll(k int64) *pollCancelCtx {
	c := &pollCancelCtx{Context: context.Background(), done: make(chan struct{})}
	c.left.Store(k)
	return c
}

func (c *pollCancelCtx) Done() <-chan struct{} {
	if c.left.Add(-1) == 0 {
		close(c.done)
	}
	return c.done
}

func (c *pollCancelCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// TestPlanCtxCancelMidSolve cancels while the Aarnet schedule is being
// solved. The branch-and-bound polls the context every 256 nodes and before
// every restart attempt, and Aarnet's scan walks 1 225 nodes over 21 polls
// (TestSearchTreePinned), so a context that cancels itself on its 10th poll
// fires inside the search by construction — no goroutine races the solver.
func TestPlanCtxCancelMidSolve(t *testing.T) {
	s, err := chameleon.NewCaseStudy("Aarnet", chameleon.ScenarioConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rec := chameleon.NewRecorder()
	ctx := cancelOnPoll(10)
	_, err = chameleon.PlanCtx(ctx, s, chameleon.PlanOptions{Recorder: rec})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("PlanCtx = %v, want context.Canceled", err)
	}
	if left := ctx.left.Load(); left > 0 {
		t.Fatalf("cancelled with %d polls to go: not by the context under test", left)
	}
	if rec.Counter(obs.CtrMILPNodes) == 0 {
		t.Errorf("spans = %v, no solver node charged: the cancellation landed before the search", rec.SpanNames())
	}
	if err := rec.Validate(); err != nil {
		t.Errorf("trace after mid-solve cancellation ill-formed: %v", err)
	}
}

// TestExecuteCtxFacadePreCancelled: the facade's ExecuteCtx honors an
// already-cancelled context without touching the network.
func TestExecuteCtxFacadePreCancelled(t *testing.T) {
	s := chameleon.RunningExample()
	r, err := chameleon.PlanCtx(context.Background(), s, chameleon.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.ExecuteCtx(ctx, chameleon.ExecOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExecuteCtx = %v, want context.Canceled", err)
	}
}
