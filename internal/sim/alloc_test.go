// The race detector's instrumentation allocates, so the ceilings below hold
// only without it.

//go:build !race

package sim_test

import (
	"runtime"
	"testing"

	"chameleon/internal/scenario"
)

// TestStormAllocs holds a 1k-prefix route-by-route storm — the
// prefix-storm workload's per-message delivery at a tenth of its size — to
// a ceiling of allocations and bytes. A message waits in its session's lane
// and carries its announcements and withdrawals in one payload slice, so a
// route in flight costs one 112-byte message and no heap slot of its own.
func TestStormAllocs(t *testing.T) {
	build := func() {
		st, err := scenario.BuildStorm(scenario.StormConfig{Prefixes: 1000, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Net.TableEntries(); got < 1000 {
			t.Fatalf("the storm converged to %d Adj-RIB-In entries, want at least 1000", got)
		}
	}
	build()
	n := testing.AllocsPerRun(3, build)
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("a 1k-prefix route-by-route storm: %.0f allocations, %d B", n, bytes)
	// 5 467 allocations and 760 581 B while every message in flight had a
	// heap slot and two payload slices; 5 455 and 624 218 B since.
	if n > 5600 {
		t.Errorf("a storm allocates %.0f times; want at most 5 600", n)
	}
	if bytes > 650_000 {
		t.Errorf("a storm allocates %d B; want at most 650 000", bytes)
	}
}
