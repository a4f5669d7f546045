package pool

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"chameleon/internal/obs"
)

func TestMapOrderIndependentOfWorkers(t *testing.T) {
	const n = 64
	for _, workers := range []int{1, 3, 8, 0} {
		out, err := Map(context.Background(), workers, n, nil, func(_ context.Context, i int) (int, error) {
			// Finish in roughly reverse order to stress completion-order
			// independence.
			time.Sleep(time.Duration(n-i) * 10 * time.Microsecond)
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != n {
			t.Fatalf("workers=%d: %d results", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapBoundedConcurrency(t *testing.T) {
	const workers = 3
	var active, peak int64
	_, err := Map(context.Background(), workers, 50, nil, func(_ context.Context, i int) (int, error) {
		cur := atomic.AddInt64(&active, 1)
		for {
			p := atomic.LoadInt64(&peak)
			if cur <= p || atomic.CompareAndSwapInt64(&peak, p, cur) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		atomic.AddInt64(&active, -1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&peak); got > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", got, workers)
	}
}

func TestMapPanicCapture(t *testing.T) {
	out, err := Map(context.Background(), 4, 8, nil, func(_ context.Context, i int) (int, error) {
		if i == 5 {
			panic("boom")
		}
		return i, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Index != 5 || pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Errorf("panic error incomplete: %+v", pe)
	}
	if out == nil {
		t.Error("results dropped on panic")
	}
}

func TestMapLowestIndexError(t *testing.T) {
	// Every call fails; the reported error must be index 0's regardless of
	// completion order.
	_, err := Map(context.Background(), 4, 16, nil, func(_ context.Context, i int) (int, error) {
		time.Sleep(time.Duration(16-i) * 50 * time.Microsecond)
		return 0, fmt.Errorf("task %d failed", i)
	})
	if err == nil || err.Error() != "task 0 failed" {
		t.Errorf("err = %v, want task 0's error", err)
	}
}

func TestMapCancellation(t *testing.T) {
	const workers = 2
	var started int64
	_, err := Map(context.Background(), workers, 100, nil, func(ctx context.Context, i int) (int, error) {
		atomic.AddInt64(&started, 1)
		if i == 0 {
			return 0, errors.New("first failure")
		}
		// Every other task holds its worker until the failure has
		// cancelled the feed.
		<-ctx.Done()
		return 0, ctx.Err()
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	// No task can end before the cancellation, so the workers are busy
	// until then, and after it the feeder offers nothing: at most one
	// index it was already offering when the context closed gets through.
	if s := atomic.LoadInt64(&started); s > workers+1 {
		t.Errorf("%d tasks started despite an early failure; want at most %d", s, workers+1)
	}
}

func TestMapParentContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Map(ctx, 4, 10, nil, func(ctx context.Context, i int) (int, error) {
		return i, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(context.Background(), 4, 0, nil, func(_ context.Context, i int) (int, error) {
		t.Error("fn called for empty input")
		return 0, nil
	})
	if err != nil || len(out) != 0 {
		t.Errorf("empty Map = %v, %v", out, err)
	}
}

func TestWorkersClamp(t *testing.T) {
	if w := clampWorkers(8, 3); w != 3 {
		t.Errorf("clampWorkers(8,3) = %d", w)
	}
	if w := clampWorkers(2, 100); w != 2 {
		t.Errorf("clampWorkers(2,100) = %d", w)
	}
	if w := clampWorkers(0, 100); w < 1 {
		t.Errorf("clampWorkers(0,100) = %d", w)
	}
	if w := clampWorkers(-1, 0); w != 1 {
		t.Errorf("clampWorkers(-1,0) = %d", w)
	}
}

// TestMapObservedFanOut: with a recorder in ctx, every task records into its
// own fork, and the forks are adopted under label(i) in index order — also
// after a failure — so the parent's trace is identical at any worker count.
func TestMapObservedFanOut(t *testing.T) {
	const n = 8
	trace := func(workers int) ([]string, string) {
		parent := obs.New()
		ctx := obs.WithRecorder(context.Background(), parent)
		_, err := Map(ctx, workers, n, func(i int) string { return fmt.Sprintf("task %d", i) },
			func(ctx context.Context, i int) (int, error) {
				if obs.RecorderFrom(ctx) == parent {
					t.Errorf("task %d records into the parent, not a fork", i)
				}
				time.Sleep(time.Duration(n-i) * 20 * time.Microsecond)
				_, sp := obs.StartSpan(ctx, fmt.Sprintf("work %d", i))
				sp.Add("items", int64(i))
				sp.End()
				if i == n-1 { // last: every task has started, at any worker count
					return 0, errors.New("last task failed")
				}
				return i, nil
			})
		if err == nil || err.Error() != "last task failed" {
			t.Fatalf("workers=%d: err = %v, want the last task's", workers, err)
		}
		var buf bytes.Buffer
		if err := parent.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return parent.SpanNames(), buf.String()
	}
	names, want := trace(1)
	for i := 0; i < n; i++ {
		if names[2*i] != fmt.Sprintf("task %d", i) || names[2*i+1] != fmt.Sprintf("work %d", i) {
			t.Fatalf("spans %v: want task i / work i pairs in index order", names)
		}
	}
	for _, workers := range []int{3, n} {
		if _, got := trace(workers); got != want {
			t.Errorf("workers=%d: trace differs from the sequential one", workers)
		}
	}
}
