package diff

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"chameleon/internal/monitor"
	"chameleon/internal/obs"
	"chameleon/internal/obs/bundle"
	"chameleon/internal/supervisor"
	"chameleon/internal/topology"
)

// writeBundle seals a bundle at dir from named text parts.
func writeBundle(t *testing.T, dir, scenario string, seed uint64, parts map[string][2]string) *bundle.Bundle {
	t.Helper()
	w, err := bundle.Create(dir, scenario, seed)
	if err != nil {
		t.Fatal(err)
	}
	for name, kc := range parts {
		kind, content := kc[0], kc[1]
		if err := w.AddPart(name, kind, func(dst io.Writer) error {
			_, err := dst.Write([]byte(content))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := bundle.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func timelineJSONL(t *testing.T, tl *monitor.Timeline) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tl.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func traceText(t *testing.T, fill func(r *obs.Recorder)) string {
	t.Helper()
	r := obs.New()
	fill(r)
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestIdenticalBundlesEmptyDiff: the determinism gate — equal bytes, empty
// report, equal content address.
func TestIdenticalBundlesEmptyDiff(t *testing.T) {
	parts := map[string][2]string{
		"trace.jsonl":   {bundle.KindTrace, traceText(t, func(r *obs.Recorder) { r.Add("solver_nodes", 42) })},
		"plan.txt":      {bundle.KindPlan, "round 1: step a\nround 2: step b\n"},
		"chaos.txt":     {bundle.KindChaos, "chaos clos4/link/seed=1 ok fp=0000000000000001\n"},
		"timeline.json": {bundle.KindTimeline, timelineJSONL(t, &monitor.Timeline{Name: "t"})},
	}
	a := writeBundle(t, t.TempDir(), "smoke", 7, parts)
	b := writeBundle(t, t.TempDir(), "smoke", 7, parts)
	rep, err := Bundles(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Empty() {
		var buf bytes.Buffer
		rep.WriteText(&buf)
		t.Fatalf("expected empty diff, got:\n%s", buf.String())
	}
	if rep.AID != rep.BID {
		t.Errorf("same content, different IDs: %s vs %s", rep.AID, rep.BID)
	}
	if len(rep.IdenticalParts) != len(parts) {
		t.Errorf("IdenticalParts = %v", rep.IdenticalParts)
	}
}

// TestTimelineDivergenceNamesFirstEventAndRootCause: perturb one violation
// and the report must name that record and its provenance.
func TestTimelineDivergenceNamesFirstEventAndRootCause(t *testing.T) {
	mk := func(end time.Duration) string {
		return timelineJSONL(t, &monitor.Timeline{
			Name: "reach", StatesChecked: 100,
			Violations: []monitor.Violation{{
				Invariant: "reachability", Prefix: 1, Start: 2 * time.Second, End: end,
				Phase: "drain", Nodes: []topology.NodeID{3, 4},
				Cause: monitor.RootCause{Kind: "command", Label: "withdraw p1@r3", Node: 3,
					Phase: "drain", Seq: 9, Hops: 2, Latency: 1500 * time.Millisecond},
			}},
		})
	}
	a := writeBundle(t, t.TempDir(), "smoke", 7, map[string][2]string{
		"timeline.json": {bundle.KindTimeline, mk(5 * time.Second)},
	})
	b := writeBundle(t, t.TempDir(), "smoke", 7, map[string][2]string{
		"timeline.json": {bundle.KindTimeline, mk(6 * time.Second)},
	})
	rep, err := Bundles(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Empty() {
		t.Fatal("expected divergence")
	}
	f := rep.First()
	if f == nil || f.Kind != "event" {
		t.Fatalf("First() = %+v", f)
	}
	// Record 1 is the summary (violation_ns differs); both sides present.
	var buf bytes.Buffer
	rep.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{
		"first diverging event (timeline.json)",
		"root cause",
		`command "withdraw p1@r3" on node 3`,
		"2 hop(s)",
		"blame 1.500s",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestTimelineExtraViolation: one side records a violation the other never
// saw — reported as a record present only on one side.
func TestTimelineExtraViolation(t *testing.T) {
	base := &monitor.Timeline{Name: "t", StatesChecked: 10}
	withV := &monitor.Timeline{Name: "t", StatesChecked: 10,
		Violations: []monitor.Violation{{Invariant: "loopfree", Prefix: 2,
			Start: time.Second, End: 2 * time.Second, Phase: "apply",
			Nodes: []topology.NodeID{1},
			Cause: monitor.RootCause{Kind: "init"}}}}
	a := writeBundle(t, t.TempDir(), "s", 1, map[string][2]string{
		"timeline.json": {bundle.KindTimeline, timelineJSONL(t, base)}})
	b := writeBundle(t, t.TempDir(), "s", 1, map[string][2]string{
		"timeline.json": {bundle.KindTimeline, timelineJSONL(t, withV)}})
	rep, err := Bundles(a, b)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rep.WriteText(&buf)
	out := buf.String()
	if !strings.Contains(out, "<absent>") || !strings.Contains(out, "loopfree") {
		t.Errorf("expected one-sided violation in report:\n%s", out)
	}
	if !strings.Contains(out, "initial convergence") {
		t.Errorf("init cause not rendered:\n%s", out)
	}
}

// TestTraceCountersExemptNoise: a counter total that differs is named with
// both values, and no counter is exempt: every differing total is reported.
func TestTraceCountersExemptNoise(t *testing.T) {
	a := writeBundle(t, t.TempDir(), "s", 1, map[string][2]string{
		"trace.jsonl": {bundle.KindTrace, traceText(t, func(r *obs.Recorder) {
			r.Add("monitor_states_checked", 5)
			r.Add("solver_nodes", 100)
		})}})
	b := writeBundle(t, t.TempDir(), "s", 1, map[string][2]string{
		"trace.jsonl": {bundle.KindTrace, traceText(t, func(r *obs.Recorder) {
			r.Add("monitor_states_checked", 900)
			r.Add("solver_nodes", 103)
		})}})
	rep, err := Bundles(a, b)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rep.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{
		"[trace.jsonl] counter: counter monitor_states_checked: 5 vs 900",
		"[trace.jsonl] counter: counter solver_nodes: 100 vs 103",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

// TestTraceTotalsNamed: two traces that differ in one counter total report
// the first differing line and then the total by name; totals that agree
// stay out of the report.
func TestTraceTotalsNamed(t *testing.T) {
	fill := func(nodes int64) func(r *obs.Recorder) {
		return func(r *obs.Recorder) {
			r.Add("milp_nodes_explored", nodes)
			r.Add("plan_rounds", 4)
		}
	}
	a := writeBundle(t, t.TempDir(), "s", 1, map[string][2]string{
		"trace.jsonl": {bundle.KindTrace, traceText(t, fill(216294))}})
	b := writeBundle(t, t.TempDir(), "s", 1, map[string][2]string{
		"trace.jsonl": {bundle.KindTrace, traceText(t, fill(579345))}})
	rep, err := Bundles(a, b)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, d := range rep.Divergences {
		kinds = append(kinds, d.Kind)
	}
	if strings.Join(kinds, " ") != "line counter" {
		t.Fatalf("divergence kinds = %v", kinds)
	}
	if got, want := rep.Divergences[1].Detail, "counter milp_nodes_explored: 216294 vs 579345"; got != want {
		t.Errorf("counter divergence = %q, want %q", got, want)
	}
}

// TestMalformedTraceIsParseDivergence: a trace part that does not validate
// is reported as a parse divergence, not compared line by line.
func TestMalformedTraceIsParseDivergence(t *testing.T) {
	good := traceText(t, func(r *obs.Recorder) { r.Add("solver_nodes", 1) })
	bad := good + `{"type":"hist","name":"h","buckets":{"1":2},"sum":2,"count":3}` + "\n"
	a := writeBundle(t, t.TempDir(), "s", 1, map[string][2]string{
		"trace.jsonl": {bundle.KindTrace, good}})
	b := writeBundle(t, t.TempDir(), "s", 1, map[string][2]string{
		"trace.jsonl": {bundle.KindTrace, bad}})
	rep, err := Bundles(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Divergences) != 1 || rep.Divergences[0].Kind != "parse" ||
		!strings.HasPrefix(rep.Divergences[0].Detail, "B: ") {
		t.Fatalf("Divergences = %+v", rep.Divergences)
	}
}

// TestTraceDivergenceFirstLine: the trace differ names the first differing
// line, then every differing counter total.
func TestTraceDivergenceFirstLine(t *testing.T) {
	traceA := `{"type":"span","id":1,"name":"plan","start_tick":1,"end_tick":5}
{"type":"counter","name":"sim_events_processed","value":3}
{"type":"counter","name":"solver_nodes","value":10}
`
	traceB := `{"type":"span","id":1,"name":"plan","start_tick":1,"end_tick":9}
{"type":"counter","name":"sim_events_processed","value":700}
{"type":"counter","name":"solver_nodes","value":10}
`
	a := writeBundle(t, t.TempDir(), "s", 1, map[string][2]string{
		"trace.jsonl": {bundle.KindTrace, traceA}})
	b := writeBundle(t, t.TempDir(), "s", 1, map[string][2]string{
		"trace.jsonl": {bundle.KindTrace, traceB}})
	rep, err := Bundles(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Empty() {
		t.Fatal("expected span divergence")
	}
	f := rep.First()
	if f.Kind != "line" || !strings.Contains(f.A, `span #1 "plan"`) {
		t.Errorf("First() = %+v", f)
	}
	if len(rep.Divergences) != 2 || rep.Divergences[1].Detail != "counter sim_events_processed: 3 vs 700" {
		t.Errorf("want the span line then the counter; got %+v", rep.Divergences)
	}
}

// TestTraceLineEndingsOnlyDiffer: two traces whose lines and totals agree
// but whose bytes differ (CRLF against LF) yield one "content" divergence.
func TestTraceLineEndingsOnlyDiffer(t *testing.T) {
	lf := traceText(t, func(r *obs.Recorder) { r.Add("solver_nodes", 1) })
	a := writeBundle(t, t.TempDir(), "s", 1, map[string][2]string{
		"trace.jsonl": {bundle.KindTrace, lf}})
	b := writeBundle(t, t.TempDir(), "s", 1, map[string][2]string{
		"trace.jsonl": {bundle.KindTrace, strings.ReplaceAll(lf, "\n", "\r\n")}})
	rep, err := Bundles(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Divergences) != 1 || rep.Divergences[0].Kind != "content" ||
		rep.Divergences[0].Detail != "lines agree; bytes differ in line endings" {
		t.Fatalf("Divergences = %+v", rep.Divergences)
	}
}

// TestPartSetMismatch: missing and extra parts are called out by name.
func TestPartSetMismatch(t *testing.T) {
	a := writeBundle(t, t.TempDir(), "s", 1, map[string][2]string{
		"plan.txt":  {bundle.KindPlan, "x\n"},
		"extra.txt": {bundle.KindPlan, "only-a\n"}})
	b := writeBundle(t, t.TempDir(), "s", 1, map[string][2]string{
		"plan.txt":  {bundle.KindPlan, "x\n"},
		"other.txt": {bundle.KindPlan, "only-b\n"}})
	rep, err := Bundles(a, b)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]string{}
	for _, d := range rep.Divergences {
		kinds[d.Part] = d.Kind
	}
	if kinds["extra.txt"] != "missing-part" || kinds["other.txt"] != "extra-part" {
		t.Errorf("Divergences = %+v", rep.Divergences)
	}
}

// TestSeedMismatchIsMeta: different seeds are a manifest-level divergence
// even when all parts happen to match.
func TestSeedMismatchIsMeta(t *testing.T) {
	parts := map[string][2]string{"plan.txt": {bundle.KindPlan, "x\n"}}
	a := writeBundle(t, t.TempDir(), "s", 1, parts)
	b := writeBundle(t, t.TempDir(), "s", 2, parts)
	rep, err := Bundles(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Empty() || rep.Divergences[0].Kind != "meta" {
		t.Fatalf("Divergences = %+v", rep.Divergences)
	}
	if !strings.Contains(rep.Divergences[0].Detail, "seed 1 vs 2") {
		t.Errorf("Detail = %q", rep.Divergences[0].Detail)
	}
}

// TestChaosFingerprintDivergence: plain text parts report the first
// differing line.
func TestChaosFingerprintDivergence(t *testing.T) {
	a := writeBundle(t, t.TempDir(), "s", 1, map[string][2]string{
		"chaos.txt": {bundle.KindChaos, "chaos a fp=1\nchaos b fp=2\n"}})
	b := writeBundle(t, t.TempDir(), "s", 1, map[string][2]string{
		"chaos.txt": {bundle.KindChaos, "chaos a fp=1\nchaos b fp=3\n"}})
	rep, err := Bundles(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Divergences) != 1 {
		t.Fatalf("Divergences = %+v", rep.Divergences)
	}
	d := rep.Divergences[0]
	if d.Kind != "line" || !strings.Contains(d.Detail, "line 2") {
		t.Errorf("divergence = %+v", d)
	}
}

// TestMaxPerPartTruncates: a trace whose every counter differs is capped at
// DefaultMaxPerPart divergences (the first differing line, then one per
// counter).
func TestMaxPerPartTruncates(t *testing.T) {
	fill := func(v int64) func(r *obs.Recorder) {
		return func(r *obs.Recorder) {
			for i := 0; i < DefaultMaxPerPart+2; i++ {
				r.Add(fmt.Sprintf("c%d", i), v)
			}
		}
	}
	a := writeBundle(t, t.TempDir(), "s", 1, map[string][2]string{
		"trace.jsonl": {bundle.KindTrace, traceText(t, fill(1))}})
	b := writeBundle(t, t.TempDir(), "s", 1, map[string][2]string{
		"trace.jsonl": {bundle.KindTrace, traceText(t, fill(2))}})
	rep, err := Bundles(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Divergences) != DefaultMaxPerPart || rep.Truncated != 3 {
		t.Fatalf("got %d divergences, %d truncated", len(rep.Divergences), rep.Truncated)
	}
	var buf bytes.Buffer
	rep.WriteText(&buf)
	if !strings.Contains(buf.String(), "3 further divergence(s) truncated") {
		t.Errorf("truncation note missing:\n%s", buf.String())
	}
}

// TestJournalDivergenceNamesEntry: two supervisor journals that part at a
// decision entry report that entry, rendered, not raw JSON.
func TestJournalDivergenceNamesEntry(t *testing.T) {
	writeJournal := func(dir, decision string) string {
		path := dir + "/exec.jsonl"
		j, err := supervisor.NewJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []supervisor.Entry{
			{Kind: supervisor.KindBegin, Scenario: "clos4", Seed: 7, Commands: []string{"a", "b"}},
			{Kind: supervisor.KindSnapshot, Rung: "replan", Attempt: 1, SimNS: 1e9},
			{Kind: supervisor.KindDecision, Decision: decision, Reason: "invariant violated", SimNS: 2e9},
		} {
			if err := j.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	mk := func(decision string) *bundle.Bundle {
		dir := t.TempDir()
		src := writeJournal(t.TempDir(), decision)
		w, err := bundle.Create(dir, "s", 7)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AddFile("journal/exec.jsonl", bundle.KindJournal, src); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := bundle.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	rep, err := Bundles(mk("replan"), mk("rollback"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Divergences) != 1 {
		t.Fatalf("Divergences = %+v", rep.Divergences)
	}
	d := rep.Divergences[0]
	if d.Kind != "journal" || !strings.Contains(d.Detail, "entry 3") ||
		!strings.Contains(d.A, "decision=replan") || !strings.Contains(d.B, "decision=rollback") {
		t.Errorf("divergence = %+v", d)
	}
}

// TestDirsVerifiesIntegrity: a tampered part is an error, not a diff.
func TestDirsVerifiesIntegrity(t *testing.T) {
	parts := map[string][2]string{"plan.txt": {bundle.KindPlan, "x\n"}}
	aDir, bDir := t.TempDir(), t.TempDir()
	writeBundle(t, aDir, "s", 1, parts)
	b := writeBundle(t, bDir, "s", 1, parts)
	p, _ := b.Manifest.Part("plan.txt")
	if err := os.WriteFile(b.PartPath(p), []byte("tampered\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Dirs(aDir, bDir); err == nil {
		t.Fatal("tampered bundle must fail verification, not diff")
	}
}
