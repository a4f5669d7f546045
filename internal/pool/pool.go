// Package pool implements the bounded worker pool behind the parallel
// evaluation engine: N-wide fan-out over an indexed work list with results
// merged back in index order, so callers produce byte-identical output at
// any worker count. Scenario runs are embarrassingly parallel — every run
// owns its network, executor and RNG streams — which makes index-ordered
// result slots the only synchronization the sweeps need.
//
// The pool captures worker panics (a panicking scenario must not take the
// whole sweep down with an opaque crash), honors context cancellation, and
// reports the error of the *lowest* failed index rather than the first
// failure in completion order, keeping even the error path deterministic.
//
// Map is also the one observed fan-out: when the context carries an
// obs.Recorder, every task records into its own fork, and the forks are
// adopted back in index order, so a trace is byte-identical at any worker
// count.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"chameleon/internal/obs"
)

// PanicError wraps a panic recovered from a worker, preserving the work
// index, the panic value and the goroutine stack.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("pool: task %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// clampWorkers clamps a requested worker count: values ≤ 0 mean "one
// worker per CPU" (runtime.NumCPU), and the count never exceeds n, the
// number of work items.
func clampWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Map runs fn(ctx, i) for every i in [0, n) on at most workers goroutines
// and returns the n results in index order — never in completion order —
// so the output is independent of scheduling. A fn error or panic cancels
// the context handed to the remaining calls; already-running calls still
// complete and their results are kept. The returned error is the error of
// the lowest failed index (a recovered panic surfaces as *PanicError).
//
// When ctx carries an obs.Recorder, each call runs against its own
// parent.Fork() (inheriting the parent's cost attribution). After the pool
// drains, the forks are adopted into the parent under label(i) in index
// order — never completion order — even on error, so a partial fan-out
// still leaves a well-formed trace and the merged trace and metric dump are
// byte-identical at any worker count. label is called only then.
//
// fn must be safe for concurrent invocation; distinct calls never share a
// result slot.
func Map[T any](ctx context.Context, workers, n int, label func(i int) string, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n == 0 {
		return results, ctx.Err()
	}
	workers = clampWorkers(workers, n)
	parent := obs.RecorderFrom(ctx)
	var recs []*obs.Recorder
	if parent != nil {
		recs = make([]*obs.Recorder, n)
		unobserved := fn
		fn = func(ctx context.Context, i int) (T, error) {
			recs[i] = parent.Fork()
			return unobserved(obs.WithRecorder(ctx, recs[i]), i)
		}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				run(ctx, i, fn, results, errs)
				if errs[i] != nil {
					cancel()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		// Unstarted items report the cancellation cause. The check comes
		// first because a select with both cases ready picks one at
		// random: a worker waiting for work would still get the item.
		if err := ctx.Err(); err != nil {
			errs[i] = err
			continue
		}
		select {
		case idx <- i:
		case <-ctx.Done():
			errs[i] = ctx.Err()
		}
	}
	close(idx)
	wg.Wait()
	for i, rec := range recs {
		if rec != nil { // nil: never started
			parent.Adopt(label(i), rec)
		}
	}

	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// run executes one work item, converting a panic into a *PanicError in the
// item's error slot.
func run[T any](ctx context.Context, i int, fn func(ctx context.Context, i int) (T, error), results []T, errs []error) {
	defer func() {
		if v := recover(); v != nil {
			buf := make([]byte, 64<<10)
			errs[i] = &PanicError{Index: i, Value: v, Stack: buf[:runtime.Stack(buf, false)]}
		}
	}()
	results[i], errs[i] = fn(ctx, i)
}

// Serialize wraps a progress callback so concurrent Map calls can report
// through it: calls never overlap, and a nil callback becomes a no-op. The
// callback observes completion order, not index order.
func Serialize[T any](progress func(T)) func(T) {
	if progress == nil {
		return func(T) {}
	}
	var mu sync.Mutex
	return func(v T) {
		mu.Lock()
		defer mu.Unlock()
		progress(v)
	}
}
