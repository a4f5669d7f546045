package chaos_test

import (
	"context"
	"reflect"
	"testing"

	"chameleon/internal/chaos"
	"chameleon/internal/sim"
)

// TestSweepNoSilentViolations runs the full default matrix (3 topologies ×
// 5 fault kinds + control) and asserts the acceptance criterion: every run
// either upholds the §3 invariants or visibly degrades — zero silent
// violations.
func TestSweepNoSilentViolations(t *testing.T) {
	results, sums, err := chaos.SweepCtx(context.Background(), chaos.DefaultSweep(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3*6 {
		t.Fatalf("got %d results, want 18", len(results))
	}
	for _, r := range results {
		if r.Outcome == chaos.OutcomeViolation {
			t.Errorf("SILENT VIOLATION: %s/%s seed=%d: %v", r.Topology, r.Fault, r.Seed, r.Violations)
		}
		t.Logf("%-12s %-10s → %-10s faults=%d msg=%d flaps=%d retries=%d acksLost=%d",
			r.Topology, r.Fault, r.Outcome, r.CommandFaults, r.MessageFaults,
			r.Flaps, r.Recovery.Retries, r.Recovery.AcksLost)
	}
	// The sweep must actually exercise the fault layer and the healing
	// machinery, not vacuously pass.
	var faults, healed int
	for _, sm := range sums {
		faults += sm.CommandFaults + sm.MessageFaults + sm.Flaps
		healed += sm.Retries + sm.AcksLost
	}
	if faults == 0 {
		t.Error("sweep injected no faults at all")
	}
	if healed == 0 {
		t.Error("sweep triggered no self-healing (retries or readback recoveries)")
	}
	for _, sm := range sums {
		if sm.Fault == sim.FaultNone.String() && sm.Clean != sm.Runs {
			t.Errorf("control runs not all clean: %+v", sm)
		}
	}
}

// TestRunCaseReproducible asserts the determinism criterion: the same Case
// run twice yields byte-for-byte identical results — identical fault
// schedule (fingerprint) and identical outcome.
func TestRunCaseReproducible(t *testing.T) {
	kinds := []sim.FaultKind{sim.FaultDrop, sim.FaultDelay, sim.FaultPartial, sim.FaultFlap}
	for _, kind := range kinds {
		c := chaos.Case{Topology: "Abilene", Fault: kind, Seed: 3}
		r1, err := chaos.RunCaseCtx(context.Background(), c)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		r2, err := chaos.RunCaseCtx(context.Background(), c)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if r1.Fingerprint != r2.Fingerprint {
			t.Errorf("%s: fingerprints differ: %x vs %x", kind, r1.Fingerprint, r2.Fingerprint)
		}
		if !reflect.DeepEqual(r1, r2) {
			t.Errorf("%s: results differ:\n  %+v\n  %+v", kind, r1, r2)
		}
	}
	// Different seeds must produce different schedules (otherwise the
	// injector ignores its seed).
	a, err := chaos.RunCaseCtx(context.Background(), chaos.Case{Topology: "Abilene", Fault: sim.FaultDrop, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := chaos.RunCaseCtx(context.Background(), chaos.Case{Topology: "Abilene", Fault: sim.FaultDrop, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint == b.Fingerprint {
		t.Error("different seeds produced identical fault schedules")
	}
}

// TestControlRunClean: with no faults configured the run must be
// classified clean, with zero faults and zero recovery activity.
func TestControlRunClean(t *testing.T) {
	r, err := chaos.RunCaseCtx(context.Background(), chaos.Case{Topology: "RunningExample", Fault: sim.FaultNone, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Outcome != chaos.OutcomeClean {
		t.Errorf("outcome = %s, want clean (err=%q violations=%v)", r.Outcome, r.Err, r.Violations)
	}
	if r.CommandFaults+r.MessageFaults+r.Flaps != 0 {
		t.Errorf("control run injected faults: %+v", r)
	}
	if r.Recovery.Any() {
		t.Errorf("control run recorded recovery activity: %+v", r.Recovery)
	}
}

// TestInjectorDeterminism exercises the injector in isolation: same seed →
// same decisions, and the per-command fault cap holds.
func TestInjectorDeterminism(t *testing.T) {
	mk := func(seed uint64) *chaos.Injector {
		return chaos.NewInjector(chaos.InjectorConfig{
			Seed:             seed,
			CommandRate:      0.5,
			CommandKinds:     []sim.FaultKind{sim.FaultDrop, sim.FaultPartial},
			MaxAttemptFaults: 2,
		})
	}
	in1, in2 := mk(9), mk(9)
	for i := 0; i < 50; i++ {
		f1 := in1.CommandFault(1, "cmd", i)
		f2 := in2.CommandFault(1, "cmd", i)
		if f1 != f2 {
			t.Fatalf("call %d: %+v vs %+v", i, f1, f2)
		}
	}
	if in1.Fingerprint() != in2.Fingerprint() {
		t.Error("same seed, different fingerprints")
	}
	if got := in1.CommandFaults(); got != 2 {
		t.Errorf("per-command cap: %d faults on one command, want 2", got)
	}
}
