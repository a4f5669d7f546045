package eval

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestCaseStudyMonitorTimelines is the paper's headline claim, measured by
// the online monitor instead of the offline traffic harness: applying the
// Abilene reconfiguration directly (Snowcap) violates invariants during the
// transient, Chameleon never does.
func TestCaseStudyMonitorTimelines(t *testing.T) {
	r, err := RunCaseStudyCtx(context.Background(), "Abilene", 7)
	if err != nil {
		t.Fatal(err)
	}
	if r.SnowcapTimeline == nil || r.ChameleonTimeline == nil {
		t.Fatal("case study must produce both timelines")
	}
	if r.SnowcapViolationTime <= 0 {
		t.Errorf("Snowcap transient violation time = %v, want > 0", r.SnowcapViolationTime)
	}
	if len(r.SnowcapTimeline.Violations) == 0 {
		t.Error("Snowcap timeline records no violations")
	}
	if r.SnowcapTimeline.ByInvariant("reach") <= 0 {
		t.Error("Snowcap must transiently violate reachability (the Fig. 1 black hole)")
	}
	if r.ChameleonViolationTime != 0 || len(r.ChameleonTimeline.Violations) != 0 {
		t.Errorf("Chameleon transient violations = %v over %d intervals, want none",
			r.ChameleonViolationTime, len(r.ChameleonTimeline.Violations))
	}
	if r.ChameleonTimeline.StatesChecked == 0 {
		t.Error("Chameleon timeline checked no states — the monitor was not bound")
	}
	// The monitor and the traffic harness must agree on who is clean.
	if r.Chameleon.Clean() != (r.ChameleonViolationTime == 0) {
		t.Error("monitor and traffic measurement disagree on Chameleon")
	}

	table := FormatViolationTable(r)
	if !strings.Contains(table, "reach") || !strings.Contains(table, "any") {
		t.Errorf("violation table missing rows:\n%s", table)
	}
}

// TestCaseStudyTimelineByteIdentical locks in the determinism contract:
// re-running the same seed reproduces the JSONL and CSV timeline artifacts
// byte for byte.
func TestCaseStudyTimelineByteIdentical(t *testing.T) {
	render := func() (string, string) {
		r, err := RunCaseStudyCtx(context.Background(), "Abilene", 7)
		if err != nil {
			t.Fatal(err)
		}
		var jsonl, csv bytes.Buffer
		if err := r.SnowcapTimeline.WriteJSONL(&jsonl); err != nil {
			t.Fatal(err)
		}
		if err := r.ChameleonTimeline.WriteJSONL(&jsonl); err != nil {
			t.Fatal(err)
		}
		if err := WriteTimelineCSV(&csv, r.SnowcapTimeline, r.ChameleonTimeline); err != nil {
			t.Fatal(err)
		}
		return jsonl.String(), csv.String()
	}
	j1, c1 := render()
	j2, c2 := render()
	if j1 != j2 {
		t.Errorf("timeline JSONL differs across identical runs:\n%s\nvs\n%s", j1, j2)
	}
	if c1 != c2 {
		t.Errorf("timeline CSV differs across identical runs:\n%s\nvs\n%s", c1, c2)
	}
	if !strings.HasPrefix(c1, "run,kind,invariant,prefix,start_s,end_s,duration_s,tick,phase,nodes,open,cause_kind,cause,hop_depth,blame_s\n") {
		t.Errorf("unexpected timeline CSV header:\n%s", c1)
	}
}

// TestCaseStudyViolationsCarryRootCause is the provenance acceptance gate:
// every transient violation the monitor records during the Snowcap baseline
// run is attributed to a registered root cause — here the reconfiguration
// commands Snowcap pushes — with a well-formed blame record.
func TestCaseStudyViolationsCarryRootCause(t *testing.T) {
	r, err := RunCaseStudyCtx(context.Background(), "Abilene", 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.SnowcapTimeline.Violations) == 0 {
		t.Fatal("Snowcap timeline records no violations — nothing to attribute")
	}
	commands := 0
	for i, v := range r.SnowcapTimeline.Violations {
		c := v.Cause
		if c.Kind == "" {
			t.Errorf("violation %d (%s @ %v) has an empty cause kind", i, v.Invariant, v.Start)
			continue
		}
		switch c.Kind {
		case "command":
			commands++
			if c.Label == "" {
				t.Errorf("violation %d: command cause without a description", i)
			}
			if c.Latency < 0 {
				t.Errorf("violation %d: negative blame latency %v", i, c.Latency)
			}
		case "event", "init":
		default:
			t.Errorf("violation %d: unknown cause kind %q", i, c.Kind)
		}
	}
	if commands == 0 {
		t.Error("no violation blames a command — Snowcap's churn is command-driven")
	}
}
