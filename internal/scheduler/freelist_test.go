package scheduler_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chameleon/internal/analyzer"
	"chameleon/internal/eval"
	"chameleon/internal/milp"
	"chameleon/internal/obs"
	"chameleon/internal/scenario"
	"chameleon/internal/scheduler"
	"chameleon/internal/spec"
)

// pollCtx is cancelled by its own cancelAt-th poll of Done, too late for that
// poll to see it: the solver's sparse polls make the cancellation land at the
// same node of the search on every run.
type pollCtx struct {
	context.Context
	cancel          func()
	polls, cancelAt int
}

func (c *pollCtx) Done() <-chan struct{} {
	if c.polls++; c.polls == c.cancelAt {
		c.cancel()
		return nil
	}
	return c.Context.Done()
}

// scheduleDigest renders everything a schedule decides, and every Stats field
// but the wall-clock Duration (fmt prints maps in key order).
func scheduleDigest(s *scheduler.NodeSchedule) string {
	st := s.Stats
	st.Duration = 0
	return fmt.Sprintf("R=%d tuples=%v mold=%v mnew=%v temp=%d/%d stats=%+v",
		s.R, s.Tuples, s.MOld, s.MNew, s.TempOldSessions, s.TempNewSessions, st)
}

func caseStudy(t *testing.T, topo string) (*scenario.Scenario, *analyzer.Analysis) {
	t.Helper()
	s, err := scenario.CaseStudy(topo, scenario.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return s, analyze(t, s)
}

// TestRecycledEncoderIsInvisible: a round scan on an encoder that served a
// different analysis, a temporal specification, other options and a scan
// cancelled mid-solve returns what the same scan returns on a fresh encoder,
// and leaves the encoder as the fresh scan left it.
func TestRecycledEncoderIsInvisible(t *testing.T) {
	ctx := context.Background()
	abilene, aAbilene := caseStudy(t, "Abilene")
	sprint, aSprint := caseStudy(t, "Sprint")
	aarnet, aAarnet := caseStudy(t, "Aarnet")
	spAbilene := reachSpec(abilene.Graph)

	scheduler.DrainEncoders()
	first, err := scheduler.ScheduleCtx(ctx, aAbilene, spAbilene, scheduler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	fresh := scheduler.FreeEncoders()
	if len(fresh) != 1 {
		t.Fatalf("free list holds %d encoders after one scan, want 1", len(fresh))
	}

	if _, err := scheduler.ScheduleCtx(ctx, aSprint, eval.Eq4Spec(aSprint, sprint.E1), scheduler.DefaultOptions()); err != nil {
		t.Fatalf("Sprint under Eq. 4: %v", err)
	}
	// Without the Eq. 3 loop constraints, no budget of 16 nodes or fewer
	// decides any of Aarnet's round counts (24 does): the scan encodes
	// R = 1..16 and ends undecided, leaving the encoder its largest model.
	opts := scheduler.DefaultOptions()
	opts.ExplicitLoopConstraints = false
	opts.SolverNodeBudget = 16
	if _, err := scheduler.ScheduleCtx(ctx, aAarnet, nil, opts); !errors.Is(err, milp.ErrTimeout) {
		t.Fatalf("Aarnet at 16 nodes: err = %v, want milp.ErrTimeout", err)
	}
	// Aarnet's scan walks 1 225 nodes over 21 polls, one every 256 nodes
	// and one before every restart attempt: the 10th falls inside a search.
	inner, cancel := context.WithCancel(ctx)
	defer cancel()
	pc := &pollCtx{Context: inner, cancel: cancel, cancelAt: 10}
	if _, err := scheduler.ScheduleCtx(pc, aAarnet, reachSpec(aarnet.Graph), scheduler.DefaultOptions()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled scan: err = %v, want context.Canceled", err)
	}
	if pc.polls < pc.cancelAt {
		t.Fatalf("scan ended after %d polls, before the context cancelled itself", pc.polls)
	}

	again, err := scheduler.ScheduleCtx(ctx, aAbilene, spAbilene, scheduler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := scheduleDigest(again), scheduleDigest(first); got != want {
		t.Errorf("recycled encoder:\n%s\nfresh encoder:\n%s", got, want)
	}
	if got := scheduler.FreeEncoders(); len(got) != 1 || got[0] != fresh[0] {
		t.Errorf("free list after the recycled scan: %q\nafter the fresh one: %q", got, fresh)
	}
}

// TestConcurrentScansMatchSequential: more goroutines than the free list
// holds encoders schedule four analyses over and over, so scans run on fresh
// and recycled encoders alike, concurrently; each result must be the
// sequential one.
func TestConcurrentScansMatchSequential(t *testing.T) {
	type job struct {
		a  *analyzer.Analysis
		sp *spec.Spec
	}
	var jobs []job
	for _, topo := range []string{"Abilene", "Aarnet", "Compuserve"} {
		s, a := caseStudy(t, topo)
		jobs = append(jobs, job{a, reachSpec(s.Graph)})
	}
	ex := scenario.RunningExample()
	jobs = append(jobs, job{analyze(t, ex), reachSpec(ex.Graph)})

	schedule := func(j job) (string, error) {
		s, err := scheduler.ScheduleCtx(context.Background(), j.a, j.sp, scheduler.DefaultOptions())
		if err != nil {
			return "", err
		}
		return scheduleDigest(s), nil
	}
	scheduler.DrainEncoders()
	want := make([]string, len(jobs))
	for i, j := range jobs {
		var err error
		if want[i], err = schedule(j); err != nil {
			t.Fatal(err)
		}
	}
	const passes = 3
	workers := runtime.GOMAXPROCS(0) + 2
	var wg sync.WaitGroup
	errs := make(chan error, workers*passes*len(jobs))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < passes*len(jobs); i++ {
				k := (w + i) % len(jobs)
				got, err := schedule(jobs[k])
				if err == nil && got != want[k] {
					err = fmt.Errorf("worker %d, job %d:\n%s\nsequential:\n%s", w, k, got, want[k])
				}
				if err != nil {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestScanRetainsNoCaller: once ScheduleCtx returns, the encoder it hands to
// the free list must not keep the caller's recorder (through the ctx the
// solver polled), analysis or specification alive.
func TestScanRetainsNoCaller(t *testing.T) {
	scheduler.DrainEncoders()
	var collected atomic.Int32
	func() {
		s, a := caseStudy(t, "Abilene")
		sp, rec := reachSpec(s.Graph), obs.New()
		runtime.SetFinalizer(a, func(*analyzer.Analysis) { collected.Add(1) })
		// The root expression: the spec memo's keys point at expressions.
		runtime.SetFinalizer(sp.Root, func(*spec.Expr) { collected.Add(1) })
		runtime.SetFinalizer(rec, func(*obs.Recorder) { collected.Add(1) })
		if _, err := scheduler.ScheduleCtx(obs.WithRecorder(context.Background(), rec), a, sp, scheduler.DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	}()
	if n := len(scheduler.FreeEncoders()); n != 1 {
		t.Fatalf("free list holds %d encoders after one scan, want 1", n)
	}
	for i := 0; i < 50 && collected.Load() < 3; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if n := collected.Load(); n != 3 {
		t.Errorf("%d of the recorder, analysis and specification collected after the scan, want all 3", n)
	}
}
