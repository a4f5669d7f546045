package runtime_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"chameleon/internal/obs"
	"chameleon/internal/plan"
	"chameleon/internal/runtime"
	"chameleon/internal/scenario"
	"chameleon/internal/sim"
)

// TestExecuteCtxCancelMidRound cancels the context from inside the
// simulation — at t=20 s, after setup and inside round 1 — and expects the
// executor to stop at its next supervision poll with the context's error.
// The recorder must still come out well-formed: the deferred teardown ends
// the phase and execute spans even on the error path.
func TestExecuteCtxCancelMidRound(t *testing.T) {
	s := scenario.RunningExample()
	_, _, p := pipeline(t, s, reachSpec(s.Graph))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := obs.New()
	opts := runtime.Options{Seed: 1}
	opts.ExternalEvents = []runtime.ScheduledEvent{{
		After: 20 * time.Second, Name: "cancel",
		Apply: func(*sim.Network) { cancel() },
	}}
	ex := runtime.NewExecutor(s.Net, opts)
	_, err := ex.ExecuteCtx(obs.WithRecorder(ctx, rec), plan.Single(p))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ExecuteCtx = %v, want context.Canceled", err)
	}
	if err := rec.Validate(); err != nil {
		t.Errorf("trace after mid-round cancellation ill-formed: %v", err)
	}
	names := rec.SpanNames()
	if len(names) == 0 || names[0] != "execute" {
		t.Fatalf("span names = %v, want execute first", names)
	}
	// The cancel fired inside round 1; later rounds must never have
	// started.
	for _, name := range names {
		if name == "round 2" {
			t.Errorf("round 2 span recorded after mid-round-1 cancellation: %v", names)
		}
	}
}

// TestExecuteCtxPreCancelled: an already-cancelled context stops the
// executor before any command is pushed.
func TestExecuteCtxPreCancelled(t *testing.T) {
	s := scenario.RunningExample()
	_, _, p := pipeline(t, s, reachSpec(s.Graph))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := obs.New()
	ex := runtime.NewExecutor(s.Net, runtime.Options{Seed: 1})
	if _, err := ex.ExecuteCtx(obs.WithRecorder(ctx, rec), plan.Single(p)); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExecuteCtx = %v, want context.Canceled", err)
	}
	counters := rec.Counters()
	if n := counters[obs.CtrExecCommandsPushed]; n != 0 {
		t.Errorf("%d commands pushed under a pre-cancelled context, want 0", n)
	}
}
