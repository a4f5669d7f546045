package eval

import (
	"bytes"
	"context"
	"testing"

	"chameleon/internal/chaos"
	"chameleon/internal/obs"
	"chameleon/internal/scheduler"
	"chameleon/internal/sim"
)

// Trace dumps must not depend on how many workers a sweep ran with: each
// run forks its own recorder and the parent adopts them in input order, so
// the merged span tree, tick clock, and counters are a pure function of
// the work — not of goroutine interleaving. These tests pin that contract
// byte-for-byte, the same way parallel_test.go pins the CSVs.

func dumpRecorder(t *testing.T, rec *obs.Recorder) string {
	t.Helper()
	if err := rec.Validate(); err != nil {
		t.Fatalf("trace ill-formed: %v", err)
	}
	var b bytes.Buffer
	if err := rec.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestSweepSchedulingTraceWorkerCountInvariance(t *testing.T) {
	names := []string{"Abilene", "Basnet", "Epoch"}
	dumpAt := func(workers int) string {
		rec := obs.New()
		ctx := obs.WithRecorder(context.Background(), rec)
		outs, err := SweepSchedulingCtx(ctx, names, 7, scheduler.DefaultOptions(), workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range outs {
			if o.Err != nil {
				t.Fatalf("workers=%d: run %s: %v", workers, o.Name, o.Err)
			}
		}
		return dumpRecorder(t, rec)
	}
	want := dumpAt(1)
	for _, w := range workerCounts {
		if got := dumpAt(w); got != want {
			t.Errorf("workers=%d scheduling sweep trace diverged from sequential:\n%s\nvs\n%s", w, got, want)
		}
	}
}

func TestChaosSweepTraceWorkerCountInvariance(t *testing.T) {
	cfg := chaos.SweepConfig{
		Topologies: []string{"Abilene"},
		Faults:     []sim.FaultKind{sim.FaultNone, sim.FaultDrop, sim.FaultFlap},
		Seeds:      []uint64{1},
	}
	dumpAt := func(workers int) string {
		cfg.Workers = workers
		rec := obs.New()
		ctx := obs.WithRecorder(context.Background(), rec)
		if _, _, err := chaos.SweepCtx(ctx, cfg, nil); err != nil {
			t.Fatal(err)
		}
		return dumpRecorder(t, rec)
	}
	want := dumpAt(1)
	for _, w := range workerCounts {
		if got := dumpAt(w); got != want {
			t.Errorf("workers=%d chaos sweep trace diverged from sequential:\n%s\nvs\n%s", w, got, want)
		}
	}
}
