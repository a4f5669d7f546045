//go:build !race

// The race detector's instrumentation allocates on its own (1 153
// allocations and about 68 KB for the replay below), so the ceilings hold
// only without it.

package runtime_test

import (
	"context"
	goruntime "runtime"
	"testing"

	"chameleon/internal/plan"
	"chameleon/internal/runtime"
	"chameleon/internal/scenario"
	"chameleon/internal/scheduler"
)

// TestReplayAllocs holds one replay of Abilene's plan on a clone of its
// converged network — exec-replay's op without the monitor — to a ceiling
// of allocations and bytes.
func TestReplayAllocs(t *testing.T) {
	s, err := scenario.CaseStudy("Abilene", scenario.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.Build(context.Background(), s.Net, s.FinalNetwork(), s.Prefix, s.Commands,
		nil, scheduler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	mp := plan.Single(pl.Plan)
	replay := func() {
		net := s.Net.Clone()
		if _, err := runtime.NewExecutor(net, runtime.Options{Seed: 7}).ExecuteCtx(context.Background(), mp); err != nil {
			t.Fatal(err)
		}
	}
	replay()
	n := testing.AllocsPerRun(5, replay)
	const runs = 5
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		replay()
	}
	goruntime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("replay of Abilene's plan on a clone: %.0f allocations, %d B", n, bytes)
	// 1 218 allocations and 73 571 B while the cause log was a []Cause
	// regrown by every clone, the Adj-RIB-In a map, runSteps made its step
	// state per phase and RouteMap.Add re-sorted; 1 098 and 60 363 B after.
	// 1 083 and 58 363 B since a message carries one payload slice and
	// waits in its session's lane, a fork's attribute blocks start at 8
	// records and a cloned Adj-RIB-In has room for one more neighbor.
	// 965 and 57 195 B since a weight entry's pointers are built with its
	// command instead of on every apply.
	if n > 1000 {
		t.Errorf("a replay allocates %.0f times; want at most 1 000", n)
	}
	if bytes > 60_000 {
		t.Errorf("a replay allocates %d B; want at most 60 000", bytes)
	}
}
