package chameleon_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"chameleon"
	"chameleon/internal/obs"
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
// byte-identical JSONL and metric dumps — the contract that makes traces
// diffable across machines and CI runs.
func TestTraceRunToRunDeterminism(t *testing.T) {
	dump := func() (string, string) {
		rec, _, _ := tracedRun(t)
		var tr, m bytes.Buffer
		if err := rec.WriteJSONL(&tr); err != nil {
			t.Fatal(err)
		}
		if err := rec.WriteMetrics(&m); err != nil {
			t.Fatal(err)
		}
		return tr.String(), m.String()
	}
	tr1, m1 := dump()
	tr2, m2 := dump()
	if tr1 != tr2 {
		t.Errorf("trace JSONL differs between identical runs:\n%s\nvs\n%s", tr1, tr2)
	}
	if m1 != m2 {
		t.Errorf("metric dump differs between identical runs:\n%s\nvs\n%s", m1, m2)
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

// TestPlanCtxCancelMidSolve cancels while the Sprint schedule is being
// solved. The branch-and-bound polls the context every 256 nodes and before
// every restart attempt, and Sprint's solve walks 32 854 nodes
// (TestSearchTreePinned), so a context that cancels itself on its 16th poll
// fires inside the search by construction — no goroutine races the solver.
func TestPlanCtxCancelMidSolve(t *testing.T) {
	s, err := chameleon.NewCaseStudy("Sprint", 7)
	if err != nil {
		t.Fatal(err)
	}
	rec := chameleon.NewRecorder()
	ctx := cancelOnPoll(16)
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
	r, err := chameleon.Plan(s, chameleon.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.ExecuteCtx(ctx, chameleon.ExecOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExecuteCtx = %v, want context.Canceled", err)
	}
}
