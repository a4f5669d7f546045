package chaos_test

import (
	"context"
	"path/filepath"
	"testing"

	"chameleon/internal/chaos"
	"chameleon/internal/obs"
	"chameleon/internal/supervisor"
)

// TestRecoverySweepNeverPinned is the acceptance sweep of the closed-loop
// supervisor: persistent faults and mid-reconfiguration external events,
// across topologies — and every single run must terminate in the final or
// the initial configuration, verified, with zero silent violations.
func TestRecoverySweepNeverPinned(t *testing.T) {
	dir := t.TempDir()
	cfg := chaos.DefaultRecoverySweep()
	cfg.JournalDir = dir
	results, err := chaos.RecoverySweep(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := len(cfg.Topologies) * len(cfg.Profiles) * len(cfg.Seeds)
	if len(results) != want {
		t.Fatalf("got %d results, want %d", len(results), want)
	}
	for _, r := range results {
		if !r.Recovered {
			t.Errorf("%s/%s/seed=%d NOT recovered: outcome=%s verified=%v silent=%v",
				r.Topology, r.Profile, r.Seed, r.Outcome, r.Verified, r.SilentViolations)
		}
		if r.Outcome != "final" && r.Outcome != "initial" {
			t.Errorf("%s/%s/seed=%d pinned: outcome %q", r.Topology, r.Profile, r.Seed, r.Outcome)
		}
		if len(r.SilentViolations) > 0 {
			t.Errorf("%s/%s/seed=%d silent violations: %v", r.Topology, r.Profile, r.Seed, r.SilentViolations)
		}
		// Each case left a parseable journal artifact closing with its
		// outcome.
		jpath := filepath.Join(dir, journalName(r.Topology, r.Profile, r.Seed))
		entries, err := supervisor.ReadJournal(jpath)
		if err != nil {
			t.Errorf("%s: %v", jpath, err)
			continue
		}
		last := entries[len(entries)-1]
		if last.Kind != supervisor.KindOutcome || last.Outcome != r.Outcome {
			t.Errorf("%s: journal ends with %s/%s, want outcome %s", jpath, last.Kind, last.Outcome, r.Outcome)
		}
	}
}

func journalName(topo, profile string, seed uint64) string {
	return "recovery-" + topo + "-" + profile + "-1.jsonl"
}

// TestRecoveryProfilesExerciseTheLadder pins which rung each profile
// reaches on the running example, so a regression that silently stops
// descending (or starts descending too eagerly) is caught.
func TestRecoveryProfilesExerciseTheLadder(t *testing.T) {
	run := func(profile string) *chaos.RecoveryResult {
		t.Helper()
		r, err := chaos.RunRecoveryCaseCtx(context.Background(), chaos.RecoveryCase{
			Topology: "RunningExample", Profile: profile, Seed: 1,
		}, "")
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	soft := run(chaos.ProfilePersistentFault)
	if soft.Outcome != "final" || soft.Replans == 0 {
		t.Errorf("persistent-fault: outcome=%s replans=%d, want final via replanning",
			soft.Outcome, soft.Replans)
	}
	if soft.RolledBack {
		t.Error("persistent-fault rolled back; the fault clears after two invocations")
	}

	hard := run(chaos.ProfilePersistentHard)
	if hard.Outcome != "initial" || !hard.RolledBack {
		t.Errorf("persistent-fault-hard: outcome=%s rolledback=%v, want rolled-back initial",
			hard.Outcome, hard.RolledBack)
	}

	mid := run(chaos.ProfileMidEvent)
	if !mid.Recovered {
		t.Errorf("mid-event not recovered: %+v", mid)
	}
}

// TestRecoveryDeterministic: same case, same fingerprint — the recovery
// matrix is as reproducible as the chaos matrix.
func TestRecoveryDeterministic(t *testing.T) {
	c := chaos.RecoveryCase{Topology: "Abilene", Profile: chaos.ProfilePersistentFault, Seed: 3}
	a, err := chaos.RunRecoveryCaseCtx(context.Background(), c, "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := chaos.RunRecoveryCaseCtx(context.Background(), c, filepath.Join(t.TempDir(), "j.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Errorf("fingerprints differ: %x vs %x (journaling must not perturb the run)",
			a.Fingerprint, b.Fingerprint)
	}
}

// TestPersistentDropFactory checks the factory's until semantics.
func TestPersistentDropFactory(t *testing.T) {
	f := chaos.PersistentDropFactory(2, nil)
	if f(0) == nil || f(1) == nil {
		t.Error("invocations before until must be faulted")
	}
	if f(2) != nil {
		t.Error("invocations at/after until must be fault-free")
	}
	forever := chaos.PersistentDropFactory(-1, nil)
	if forever(10) == nil {
		t.Error("until < 0 must fault every invocation")
	}
}

// TestRollbackHealsNoPhantomFault: under persistent-fault-hard no original
// ever lands, so every undo the rollback rung pushes reads back true at the
// moment it is pushed. That readback says nothing about an acknowledgment —
// the injector dropped the push and nothing was healed — and must not be
// booked as a lost ack or a healed fault. The verdict does not move.
func TestRollbackHealsNoPhantomFault(t *testing.T) {
	rec := obs.New()
	r, err := chaos.RunRecoveryCaseCtx(obs.WithRecorder(context.Background(), rec),
		chaos.RecoveryCase{Topology: "RunningExample", Profile: chaos.ProfilePersistentHard, Seed: 7}, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{obs.CtrExecAcksLost, obs.CtrFaultsHealed} {
		if n := rec.Counter(name); n != 0 {
			t.Errorf("%s = %d, want 0: every push was dropped and every readback was true before its push", name, n)
		}
	}
	if r.Outcome != "initial" || !r.Verified || !r.RolledBack || r.Forced {
		t.Errorf("outcome=%s verified=%v rolledback=%v forced=%v, want a verified, unforced rollback to initial",
			r.Outcome, r.Verified, r.RolledBack, r.Forced)
	}
	if want := uint64(0xd1e15cab9fe79802); r.Fingerprint != want {
		t.Errorf("fingerprint %016x, want %016x", r.Fingerprint, want)
	}
}
