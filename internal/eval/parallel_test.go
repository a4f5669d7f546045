package eval

import (
	"bytes"
	"context"
	goruntime "runtime"
	"sync"
	"testing"

	"chameleon/internal/chaos"
	"chameleon/internal/scheduler"
	"chameleon/internal/sim"
)

// workerCounts are the pool widths every determinism test compares: the
// historical sequential path, a fixed oversubscribed width, and whatever
// the host offers.
var workerCounts = []int{4, goruntime.NumCPU()}

func TestSweepSchedulingWorkerCountInvariance(t *testing.T) {
	names := []string{"Abilene", "Basnet", "Epoch"}
	csvAt := func(workers int) string {
		var calls int
		var mu sync.Mutex
		outs, err := SweepSchedulingCtx(context.Background(), names, 7, scheduler.DefaultOptions(), workers, func(SweepOutcome) {
			mu.Lock()
			calls++
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		if calls != len(names) {
			t.Fatalf("workers=%d: progress fired %d times, want %d", workers, calls, len(names))
		}
		// The ledger has no wall-clock column, so it is written as it
		// comes. scheduling_time_s is the sweep CSV's single one;
		// everything else must be byte-identical at any worker count.
		var b bytes.Buffer
		if err := WriteLedgerCSV(&b, outs); err != nil {
			t.Fatal(err)
		}
		for i := range outs {
			outs[i].SchedulingTime = 0
		}
		if err := WriteSweepCSV(&b, outs); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	want := csvAt(1)
	for _, w := range workerCounts {
		if got := csvAt(w); got != want {
			t.Errorf("workers=%d scheduling sweep CSV diverged from sequential:\n%s\nvs\n%s", w, got, want)
		}
	}
}

func TestSweepTableOverheadWorkerCountInvariance(t *testing.T) {
	names := []string{"Abilene", "Basnet", "Epoch"}
	csvAt := func(workers int) string {
		outs, err := SweepTableOverheadCtx(context.Background(), names, 7, scheduler.DefaultOptions(), workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := WriteOverheadCSV(&b, outs); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	want := csvAt(1)
	for _, w := range workerCounts {
		if got := csvAt(w); got != want {
			t.Errorf("workers=%d overhead CSV diverged from sequential:\n%s\nvs\n%s", w, got, want)
		}
	}
}

// TestChaosSweepCSVWorkerCountInvariance asserts the chaos CSV — including
// the fingerprint column — is byte-identical at any worker count.
func TestChaosSweepCSVWorkerCountInvariance(t *testing.T) {
	cfg := chaos.SweepConfig{
		Topologies: []string{"Abilene"},
		Faults:     []sim.FaultKind{sim.FaultNone, sim.FaultDrop, sim.FaultFlap},
		Seeds:      []uint64{1},
	}
	csvAt := func(workers int) string {
		cfg.Workers = workers
		results, _, err := chaos.SweepCtx(context.Background(), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := WriteChaosCSV(&b, results); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	want := csvAt(1)
	for _, w := range workerCounts {
		if got := csvAt(w); got != want {
			t.Errorf("workers=%d chaos CSV diverged from sequential:\n%s\nvs\n%s", w, got, want)
		}
	}
}

// TestParallelSweepRaceStress fans many scenario runs through an
// oversubscribed pool. Its teeth come from the -race CI run: every run
// builds its own scenario, network and executor, so the detector must stay
// silent.
func TestParallelSweepRaceStress(t *testing.T) {
	var names []string
	for i := 0; i < 4; i++ {
		names = append(names, "Abilene", "Basnet", "Epoch")
	}
	outs, err := SweepSchedulingCtx(context.Background(), names, 7, scheduler.DefaultOptions(), 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(names) {
		t.Fatalf("got %d outcomes, want %d", len(outs), len(names))
	}
	for i, o := range outs {
		if o.Err != nil {
			t.Errorf("run %d (%s): %v", i, o.Name, o.Err)
		}
		if o.Name != names[i] {
			t.Errorf("result %d is %s, want %s (merge order broken)", i, o.Name, names[i])
		}
	}
}
