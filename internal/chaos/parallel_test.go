package chaos_test

import (
	"bytes"
	"context"
	"reflect"
	goruntime "runtime"
	"testing"

	"chameleon/internal/chaos"
	"chameleon/internal/obs"
	"chameleon/internal/sim"
)

// TestSweepWorkerCountInvariance runs the same fault matrix sequentially
// and on wider pools and asserts the results — fingerprints, recovery
// accounting, summaries — are identical. The sweep's determinism contract:
// only wall-clock time may depend on the worker count, and chaos results
// carry none.
func TestSweepWorkerCountInvariance(t *testing.T) {
	cfg := chaos.SweepConfig{
		Topologies: []string{"Abilene"},
		Faults: []sim.FaultKind{
			sim.FaultNone, sim.FaultDrop, sim.FaultDelay,
			sim.FaultDuplicate, sim.FaultPartial, sim.FaultFlap,
		},
		Seeds: []uint64{1},
	}
	run := func(workers int) ([]chaos.CaseResult, []chaos.Summary) {
		cfg.Workers = workers
		results, sums, err := chaos.SweepCtx(context.Background(), cfg, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return results, sums
	}
	wantResults, wantSums := run(1)
	for _, w := range []int{4, goruntime.NumCPU()} {
		results, sums := run(w)
		if !reflect.DeepEqual(results, wantResults) {
			t.Errorf("workers=%d produced different case results than sequential", w)
		}
		if !reflect.DeepEqual(sums, wantSums) {
			t.Errorf("workers=%d produced different summaries than sequential", w)
		}
	}
}

// TestRecoverySweepWorkerCountInvariance: the supervised sweep makes the
// same promise, down to the bytes of the trace a carried recorder dumps —
// every case records into its own fork, folded back in matrix order. Cases
// recording straight into one shared recorder interleave their ticks in
// completion order, and the sealed bundle's content address changes from
// run to run.
func TestRecoverySweepWorkerCountInvariance(t *testing.T) {
	cfg := chaos.DefaultRecoverySweep()
	run := func(workers int) ([]chaos.RecoveryResult, []byte) {
		cfg.Workers = workers
		rec := obs.New()
		results, err := chaos.RecoverySweep(obs.WithRecorder(context.Background(), rec), cfg, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var trace bytes.Buffer
		if err := rec.WriteJSONL(&trace); err != nil {
			t.Fatal(err)
		}
		return results, trace.Bytes()
	}
	wantResults, wantTrace := run(1)
	for _, w := range []int{4, goruntime.NumCPU()} {
		results, trace := run(w)
		if !reflect.DeepEqual(results, wantResults) {
			t.Errorf("workers=%d produced different recovery results than sequential", w)
		}
		if !bytes.Equal(trace, wantTrace) {
			t.Errorf("workers=%d dumped a different trace than sequential", w)
		}
	}
}
