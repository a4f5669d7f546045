package obs

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

func TestSpanTreeAndValidate(t *testing.T) {
	r := New()
	root := r.StartSpan(nil, "plan")
	child := r.StartSpan(root, "schedule", String("phase", "scan"))
	child.Add(CtrMILPNodes, 7)
	grand := r.StartSpan(child, "solve", Int("R", 3))
	grand.Add(CtrMILPNodes, 5)
	grand.End()
	child.End()
	root.End()

	if err := r.Validate(); err != nil {
		t.Fatalf("well-formed tree failed validation: %v", err)
	}
	if got := r.Counter(CtrMILPNodes); got != 12 {
		t.Fatalf("global counter = %d, want 12", got)
	}
	if sc := r.spans[child.id-1]; sc.Name != "schedule" || sc.Counters[CtrMILPNodes] != 7 {
		t.Fatalf("span %q counters = %v, want schedule with %s 7", sc.Name, sc.Counters, CtrMILPNodes)
	}
	names := r.SpanNames()
	want := []string{"plan", "schedule", "solve"}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("span names = %v, want %v", names, want)
		}
	}
}

func TestValidateCatchesOpenSpan(t *testing.T) {
	r := New()
	r.StartSpan(nil, "dangling")
	err := r.Validate()
	if err == nil || !strings.Contains(err.Error(), "never ended") {
		t.Fatalf("expected never-ended error, got %v", err)
	}
}

func TestValidateCatchesChildOutlivingParent(t *testing.T) {
	r := New()
	parent := r.StartSpan(nil, "parent")
	child := r.StartSpan(parent, "child")
	parent.End()
	child.End()
	err := r.Validate()
	if err == nil || !strings.Contains(err.Error(), "after its parent") {
		t.Fatalf("expected child-outlives-parent error, got %v", err)
	}
}

func TestDoubleEndIsIdempotent(t *testing.T) {
	r := New()
	sp := r.StartSpan(nil, "once")
	sp.End()
	tick := r.spans[0].EndTick
	sp.End()
	if r.spans[0].EndTick != tick {
		t.Fatalf("second End moved the end tick %d -> %d", tick, r.spans[0].EndTick)
	}
}

func TestSimClockStamps(t *testing.T) {
	r := New()
	now := 5 * time.Second
	r.SetClock(func() time.Duration { return now })
	sp := r.StartSpan(nil, "round")
	now = 9 * time.Second
	sp.End()
	if r.spans[0].SimStart != int64(5*time.Second) || r.spans[0].SimEnd != int64(9*time.Second) {
		t.Fatalf("sim stamps = %d..%d", r.spans[0].SimStart, r.spans[0].SimEnd)
	}
	r.SetClock(nil)
	sp2 := r.StartSpan(nil, "noclk")
	sp2.End()
	if r.spans[1].SimStart != NoSim || r.spans[1].SimEnd != NoSim {
		t.Fatalf("clockless span stamped %d..%d, want NoSim", r.spans[1].SimStart, r.spans[1].SimEnd)
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

// record builds a recorder observing n fake units of work.
func record(n int) *Recorder {
	r := New()
	for i := 0; i < n; i++ {
		sp := r.StartSpan(nil, "run")
		inner := r.StartSpan(sp, "solve")
		inner.Add(CtrMILPNodes, int64(10*i+1))
		inner.End()
		sp.End()
	}
	return r
}

func TestAdoptMatchesSequential(t *testing.T) {
	// Sequential reference: all work recorded through one recorder via Adopt
	// of single-run children, versus "parallel": children built separately
	// (order of construction irrelevant) then adopted in index order.
	seq := New()
	for i := 0; i < 3; i++ {
		seq.Adopt("case", record(1))
	}
	par := New()
	children := []*Recorder{record(1), record(1), record(1)}
	for _, c := range children {
		par.Adopt("case", c)
	}

	var a, b bytes.Buffer
	if err := seq.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := par.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("adopt order not deterministic:\n--- seq ---\n%s--- par ---\n%s", a.String(), b.String())
	}
	if err := par.Validate(); err != nil {
		t.Fatalf("adopted tree invalid: %v", err)
	}
	if got := par.Counter(CtrMILPNodes); got != 3 {
		t.Fatalf("folded counter = %d, want 3", got)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	r := record(2)
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ValidateJSONL: %v", err)
	}
	if n != r.NumSpans() {
		t.Fatalf("round-trip span count = %d, want %d", n, r.NumSpans())
	}
}

func TestValidateJSONLRejectsGarbage(t *testing.T) {
	if _, err := ValidateJSONL(strings.NewReader(`{"type":"mystery"}`)); err == nil {
		t.Fatal("unknown record type accepted")
	}
	if _, err := ValidateJSONL(strings.NewReader(`{"type":"span","id":1,"name":"x","start_tick":1,"end_tick":0,"sim_start_ns":-1,"sim_end_ns":-1}`)); err == nil {
		t.Fatal("open span accepted")
	}
	for _, c := range rejectedTraces {
		if _, err := ValidateJSONL(strings.NewReader(c.trace)); err == nil {
			t.Errorf("%s accepted", c.why)
		}
	}
}

func TestWriteJSONLCountersInNameOrder(t *testing.T) {
	r := New()
	r.Add("b", 2)
	r.Add("a", 1)
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"type":"counter","name":"a","value":1}` + "\n" + `{"type":"counter","name":"b","value":2}` + "\n"
	if buf.String() != want {
		t.Fatalf("counter records = %q, want %q", buf.String(), want)
	}
}

func TestFlameSummary(t *testing.T) {
	r := record(2)
	s := r.FlameSummary()
	if !strings.Contains(s, "run") || !strings.Contains(s, "solve") {
		t.Fatalf("flame summary missing paths:\n%s", s)
	}
	if !strings.Contains(s, CtrMILPNodes+"=12") {
		t.Fatalf("flame summary missing aggregated counter:\n%s", s)
	}
}

func TestContextHelpers(t *testing.T) {
	ctx := context.Background()
	if RecorderFrom(ctx) != nil || SpanFrom(ctx) != nil {
		t.Fatal("empty context yielded recorder or span")
	}
	c2, sp := StartSpan(ctx, "noop")
	if sp != nil || c2 != ctx {
		t.Fatal("StartSpan without recorder should be identity")
	}

	r := New()
	ctx = WithRecorder(ctx, r)
	if RecorderFrom(ctx) != r {
		t.Fatal("recorder not threaded")
	}
	ctx, root := StartSpan(ctx, "outer")
	_, inner := StartSpan(ctx, "inner")
	inner.End()
	root.End()
	if err := r.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if r.spans[1].Parent != r.spans[0].ID {
		t.Fatalf("inner span parent = %d, want %d", r.spans[1].Parent, r.spans[0].ID)
	}
	// Another recorder detaches the context's span: it belongs to r, so a
	// span started under b is a root in b. The same recorder keeps it.
	b := New()
	cb := WithRecorder(ctx, b)
	if RecorderFrom(cb) != b || SpanFrom(cb) != nil {
		t.Fatalf("WithRecorder(ctx with r's span, b): recorder %p, span %v; want b, nil", RecorderFrom(cb), SpanFrom(cb))
	}
	_, other := StartSpan(cb, "other")
	other.End()
	if len(b.spans) != 1 || b.spans[0].Parent != 0 {
		t.Fatalf("span started under b: %+v, want one root", b.spans)
	}
	if SpanFrom(WithRecorder(ctx, r)) != root {
		t.Fatal("re-installing the context's own recorder dropped its span")
	}
	if WithRecorder(context.Background(), nil) != context.Background() {
		t.Fatal("WithRecorder(nil) should return ctx unchanged")
	}
}

func TestNilSafety(t *testing.T) {
	var r *Recorder
	var sp *Span
	// None of these may panic.
	sp = r.StartSpan(nil, "x")
	sp.End()
	sp.Add("c", 1)
	sp.SetAttr("k", "v")
	r.Add("c", 1)
	r.SetClock(func() time.Duration { return 0 })
	r.Adopt("w", New())
	if r.Counter("c") != 0 || r.NumSpans() != 0 || r.Fork() != nil {
		t.Fatal("nil recorder reported state")
	}
	if r.Counters() != nil || r.SpanNames() != nil {
		t.Fatal("nil recorder returned maps")
	}
	if sp != nil {
		t.Fatal("nil recorder started a span")
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if r.FlameSummary() != "" {
		t.Fatal("nil recorder produced flame summary")
	}
}
