package supervisor_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chameleon/internal/monitor"
	"chameleon/internal/scenario"
	"chameleon/internal/sim"
	"chameleon/internal/supervisor"
	"chameleon/internal/topology"
)

// dropAll loses every command — the persistent fault
// that exhausts the executor's escalation ladder.
type dropAll struct{}

func (dropAll) CommandFault(_ topology.NodeID, _ string, _ int) sim.CommandFault {
	return sim.CommandFault{Kind: sim.FaultDrop}
}

// dropUntil drops every command on invocations < n, none afterwards.
func dropUntil(n int) func(int) sim.FaultInjector {
	return func(attempt int) sim.FaultInjector {
		if attempt < n {
			return dropAll{}
		}
		return nil
	}
}

func alwaysDrop(int) sim.FaultInjector { return dropAll{} }

// timelineBytes concatenates the JSONL export of every timeline — the
// byte-identity currency of the resume tests.
func timelineBytes(t *testing.T, tls []*monitor.Timeline) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, tl := range tls {
		if err := tl.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestSuperviseHappyPath(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "journal.jsonl")
	s := scenario.RunningExample()
	res, err := supervisor.RunCtx(context.Background(), s, supervisor.Options{Seed: 11, JournalPath: jpath})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != supervisor.OutcomeFinal {
		t.Fatalf("Outcome = %v, want final", res.Outcome)
	}
	if !res.Verified {
		t.Error("final configuration not verified by readback")
	}
	if res.Attempts != 1 || res.Replans != 0 || res.Committed || res.RolledBack || res.Forced {
		t.Errorf("unexpected ladder engagement: %+v", res)
	}
	if len(res.Timelines) != 1 || res.Timelines[0].Name != "attempt-0" {
		t.Fatalf("Timelines = %v, want one named attempt-0", res.Timelines)
	}
	if res.Timelines[0].TotalViolation() != 0 {
		t.Errorf("unperturbed run has violation time %v", res.Timelines[0].TotalViolation())
	}
	if res.JournalBytes <= 0 {
		t.Error("JournalBytes = 0, want > 0")
	}

	entries, err := supervisor.ReadJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if entries[0].Kind != supervisor.KindBegin {
		t.Errorf("first journal entry %q, want begin", entries[0].Kind)
	}
	last := entries[len(entries)-1]
	if last.Kind != supervisor.KindOutcome || last.Outcome != "final" {
		t.Errorf("last journal entry = %+v, want final outcome", last)
	}
}

// TestSuperviseReplanRecovers is the closed loop working as designed: a
// persistent fault wrecks attempt 0, the supervisor aborts, snapshots the
// intermediate state, replans, and attempt 1 lands the reconfiguration.
func TestSuperviseReplanRecovers(t *testing.T) {
	s := scenario.RunningExample()
	res, err := supervisor.RunCtx(context.Background(), s, supervisor.Options{
		Seed:            11,
		InjectorFactory: dropUntil(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != supervisor.OutcomeFinal || !res.Verified {
		t.Fatalf("Outcome = %v (verified %v), want verified final", res.Outcome, res.Verified)
	}
	if res.Attempts != 2 || res.Replans != 1 {
		t.Errorf("Attempts = %d, Replans = %d, want 2 and 1", res.Attempts, res.Replans)
	}
	if res.Committed || res.RolledBack || res.Forced {
		t.Errorf("recovery descended past the execute rung: %+v", res)
	}
	if len(res.Timelines) != 2 || res.Timelines[1].Name != "attempt-1" {
		t.Fatalf("want timelines attempt-0, attempt-1; got %d", len(res.Timelines))
	}
}

// TestSuperviseCommitRung: with the replan budget spent, the supervisor
// fast-commits the remaining original commands (§8 reaction 3) once the
// fault clears.
func TestSuperviseCommitRung(t *testing.T) {
	s := scenario.RunningExample()
	res, err := supervisor.RunCtx(context.Background(), s, supervisor.Options{
		Seed:            11,
		MaxReplans:      -1,
		InjectorFactory: dropUntil(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != supervisor.OutcomeFinal || !res.Verified {
		t.Fatalf("Outcome = %v (verified %v), want verified final", res.Outcome, res.Verified)
	}
	if !res.Committed {
		t.Error("commit rung did not engage")
	}
	if res.RolledBack || res.Forced {
		t.Errorf("descended past the commit rung: %+v", res)
	}
	if res.Attempts != 1 || res.Replans != 0 {
		t.Errorf("Attempts = %d, Replans = %d, want 1 and 0", res.Attempts, res.Replans)
	}
}

// TestSuperviseRollback: when the fault never clears, every rung fails and
// the supervisor rolls the network back to its initial configuration. With
// total command loss nothing ever changed, so the rollback rung confirms
// every undo through configuration readback (no force needed): the network
// is never left pinned mid-reconfiguration.
func TestSuperviseRollback(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "journal.jsonl")
	s := scenario.RunningExample()
	res, err := supervisor.RunCtx(context.Background(), s, supervisor.Options{
		Seed:            11,
		MaxReplans:      1,
		JournalPath:     jpath,
		InjectorFactory: alwaysDrop,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != supervisor.OutcomeInitial {
		t.Fatalf("Outcome = %v, want initial", res.Outcome)
	}
	if !res.Verified {
		t.Error("initial configuration not verified by readback")
	}
	if !res.Committed || !res.RolledBack {
		t.Errorf("expected the commit and rollback rungs to engage: %+v", res)
	}
	if res.Forced {
		t.Error("undos were readback-confirmable; force was unnecessary")
	}
	// The journal must record the descent and close with the outcome.
	entries, err := supervisor.ReadJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	var decisions []string
	for _, e := range entries {
		if e.Kind == supervisor.KindDecision {
			decisions = append(decisions, e.Decision)
		}
	}
	want := "replan,commit,rollback"
	if got := strings.Join(decisions, ","); got != want {
		t.Errorf("decisions = %s, want %s", got, want)
	}
	if last := entries[len(entries)-1]; last.Kind != supervisor.KindOutcome || last.Outcome != "initial" {
		t.Errorf("last entry = %+v, want initial outcome", last)
	}
}

// TestSuperviseForcedRollback drives the last rung: the declared initial
// configuration differs from what readback finds (undo Verify is false at
// start) and the command channel is dead, so the confirmed rollback is
// blocked and the supervisor applies the undos out-of-band — still
// terminating in the (now verified) initial configuration.
func TestSuperviseForcedRollback(t *testing.T) {
	s := scenario.RunningExample()
	n1, ext1 := s.E1, s.Ext[0]
	setLP := func(lp uint32) func(*sim.Network) {
		return func(net *sim.Network) {
			net.UpdateRouteMap(n1, ext1, sim.In, func(rm *sim.RouteMap) {
				rm.Remove(10)
				rm.Add(sim.Entry{Order: 10, Action: sim.Action{SetLocalPref: sim.U32P(lp)}})
			})
		}
	}
	hasLP := func(lp uint32) func(*sim.Network) bool {
		return func(net *sim.Network) bool {
			for _, e := range net.RouteMapOf(n1, ext1, sim.In).Entries() {
				if e.Order == 10 && e.Action.SetLocalPref != nil && *e.Action.SetLocalPref == lp {
					return true
				}
			}
			return false
		}
	}
	// The undo targets local-pref 300 — a state the live network is not in,
	// so no readback can confirm it while commands are being dropped.
	s.Undo = []sim.Command{{
		Node:        n1,
		Description: "n1: restore local-pref of routes from ext1 to 300",
		Apply:       setLP(300),
		Verify:      hasLP(300),
	}}
	res, err := supervisor.RunCtx(context.Background(), s, supervisor.Options{
		Seed:            11,
		MaxReplans:      -1,
		InjectorFactory: alwaysDrop,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != supervisor.OutcomeInitial || !res.Forced {
		t.Fatalf("Outcome = %v forced %v, want forced initial", res.Outcome, res.Forced)
	}
	if !res.Verified {
		t.Error("forced rollback left the initial configuration unverified")
	}
	if !hasLP(300)(s.Net) {
		t.Error("forced rollback did not land the undo configuration")
	}
	if !s.Net.Converged() {
		t.Error("network left mid-convergence after forced rollback")
	}
}

// TestSuperviseInfeasibleReplanCommits: a solver budget too small to prove
// any schedule makes planning itself fail, and the supervisor degrades
// straight to the commit rung rather than erroring out. The journaled
// reason carries plan.Build's stage name.
func TestSuperviseInfeasibleReplanCommits(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "journal.jsonl")
	s := scenario.RunningExample()
	res, err := supervisor.RunCtx(context.Background(), s, supervisor.Options{
		Seed:             11,
		SolverNodeBudget: 1,
		JournalPath:      jpath,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != supervisor.OutcomeFinal || !res.Verified {
		t.Fatalf("Outcome = %v (verified %v), want verified final", res.Outcome, res.Verified)
	}
	if !res.Committed {
		t.Error("commit rung did not engage after infeasible planning")
	}
	if res.Attempts != 0 {
		t.Errorf("Attempts = %d, want 0 (no plan ever compiled)", res.Attempts)
	}
	// The journal names the planning stage that failed.
	entries, err := supervisor.ReadJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	var reasons []string
	for _, e := range entries {
		if e.Kind == supervisor.KindDecision {
			reasons = append(reasons, e.Decision+": "+e.Reason)
		}
	}
	want := "commit: replan infeasible: schedule: scheduler: solving with R=16: milp: node limit exceeded"
	if got := strings.Join(reasons, "; "); got != want {
		t.Errorf("decisions = %q, want %q", got, want)
	}
}

// TestResumeReplaysJournal is the kill-and-resume contract: a supervisor
// killed mid-run restarts from its journal, replays the recorded recovery
// boundaries, and reaches the same outcome with byte-identical monitor
// timelines.
func TestResumeReplaysJournal(t *testing.T) {
	dir := t.TempDir()
	opts := func(jpath string) supervisor.Options {
		return supervisor.Options{
			Seed:            11,
			JournalPath:     jpath,
			InjectorFactory: dropUntil(1),
		}
	}

	// Reference: the uninterrupted run (attempt 0 faulted, attempt 1 lands).
	full := filepath.Join(dir, "full.jsonl")
	ref, err := supervisor.RunCtx(context.Background(), scenario.RunningExample(), opts(full))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Outcome != supervisor.OutcomeFinal || ref.Replans != 1 {
		t.Fatalf("reference run: %+v", ref)
	}
	refTL := timelineBytes(t, ref.Timelines)

	// Simulate a crash immediately after the snapshot for attempt 1 was
	// fsynced (plus a torn half-written line, as a real crash would leave):
	// keep the journal prefix through that snapshot.
	entries, err := supervisor.ReadJournal(full)
	if err != nil {
		t.Fatal(err)
	}
	cut := -1
	for i, e := range entries {
		if e.Kind == supervisor.KindSnapshot && e.Attempt == 1 {
			cut = i
			break
		}
	}
	if cut < 0 {
		t.Fatal("no attempt-1 snapshot in the reference journal")
	}
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	crashed := filepath.Join(dir, "crashed.jsonl")
	torn := append(bytes.Join(lines[:cut+1], nil), []byte(`{"seq":99,"kind":"sn`)...)
	if err := os.WriteFile(crashed, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	// Resume on a freshly built scenario instance.
	res, err := supervisor.Resume(context.Background(), scenario.RunningExample(), opts(crashed))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resumed {
		t.Error("Resumed = false")
	}
	if res.Outcome != ref.Outcome || res.Verified != ref.Verified {
		t.Errorf("resumed outcome %v/%v, reference %v/%v",
			res.Outcome, res.Verified, ref.Outcome, ref.Verified)
	}
	if res.Attempts != ref.Attempts || res.Replans != ref.Replans {
		t.Errorf("resumed Attempts/Replans = %d/%d, reference %d/%d",
			res.Attempts, res.Replans, ref.Attempts, ref.Replans)
	}
	if got := timelineBytes(t, res.Timelines); !bytes.Equal(got, refTL) {
		t.Errorf("resumed timelines differ from reference:\n--- resumed\n%s--- reference\n%s", got, refTL)
	}
	// The resumed journal must also close with the same outcome.
	after, err := supervisor.ReadJournal(crashed)
	if err != nil {
		t.Fatal(err)
	}
	if last := after[len(after)-1]; last.Kind != supervisor.KindOutcome || last.Outcome != "final" {
		t.Errorf("resumed journal ends with %+v, want final outcome", last)
	}
}

// TestResumeFinishedJournal: resuming a journal that already holds an
// outcome reconstructs the result without re-executing anything.
func TestResumeFinishedJournal(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "journal.jsonl")
	s := scenario.RunningExample()
	ref, err := supervisor.RunCtx(context.Background(), s, supervisor.Options{Seed: 11, JournalPath: jpath})
	if err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	res, err := supervisor.Resume(context.Background(), scenario.RunningExample(),
		supervisor.Options{Seed: 11, JournalPath: jpath})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resumed || res.Outcome != ref.Outcome {
		t.Errorf("res = %+v, want resumed %v", res, ref.Outcome)
	}
	after, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("resuming a finished journal modified it")
	}
}

// TestResumeRejectsForeignJournal: a journal begun by a different scenario
// or seed must not be replayed onto this network.
func TestResumeRejectsForeignJournal(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "journal.jsonl")
	if _, err := supervisor.RunCtx(context.Background(), scenario.RunningExample(),
		supervisor.Options{Seed: 11, JournalPath: jpath}); err != nil {
		t.Fatal(err)
	}
	_, err := supervisor.Resume(context.Background(), scenario.RunningExample(),
		supervisor.Options{Seed: 12, JournalPath: jpath})
	if err == nil {
		t.Fatal("resuming under a different seed succeeded")
	}
}

// TestJournalTornTrailingLine: only the final line may be torn; the same
// defect earlier is corruption.
func TestJournalTornTrailingLine(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.jsonl")
	j, err := supervisor.NewJournal(good)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(supervisor.Entry{Kind: supervisor.KindDecision, Decision: "replan"}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	raw, _ := os.ReadFile(good)

	torn := filepath.Join(dir, "torn.jsonl")
	os.WriteFile(torn, append(append([]byte{}, raw...), []byte(`{"seq":4,"ki`)...), 0o644)
	entries, err := supervisor.ReadJournal(torn)
	if err != nil || len(entries) != 3 {
		t.Fatalf("torn trailing line: entries %d err %v, want 3 and nil", len(entries), err)
	}

	corrupt := filepath.Join(dir, "corrupt.jsonl")
	lines := bytes.SplitAfter(raw, []byte("\n"))
	bad := append(append([]byte{}, lines[0]...), []byte("{\"seq\":9,\"kind\":\"decision\"}\n")...)
	bad = append(bad, lines[2]...)
	os.WriteFile(corrupt, bad, 0o644)
	if _, err := supervisor.ReadJournal(corrupt); err == nil {
		t.Fatal("mid-file seq gap accepted")
	}
}
