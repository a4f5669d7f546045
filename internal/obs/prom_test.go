package obs

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

// Exposition-format line shapes (text format version 0.0.4).
var (
	helpRe   = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$`)
	typeRe   = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge)$`)
	sampleRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? -?[0-9]+$`)
)

// checkExposition parses a text-format dump: every line must be a HELP, a
// TYPE or a sample, every metric must carry exactly one HELP and one TYPE
// before its sample, and metric names must arrive in the emitted group
// order. Returns the metric names in order of appearance.
func checkExposition(t *testing.T, dump string) []string {
	t.Helper()
	var names []string
	lines := strings.Split(strings.TrimRight(dump, "\n"), "\n")
	for i := 0; i < len(lines); i += 3 {
		if i+2 >= len(lines) {
			t.Fatalf("truncated metric block at line %d: %q", i, lines[i:])
		}
		help, typ, sample := lines[i], lines[i+1], lines[i+2]
		if !helpRe.MatchString(help) {
			t.Errorf("malformed HELP line: %q", help)
		}
		if !typeRe.MatchString(typ) {
			t.Errorf("malformed TYPE line: %q", typ)
		}
		if !sampleRe.MatchString(sample) {
			t.Errorf("malformed sample line: %q", sample)
		}
		name := strings.Fields(help)[2]
		if typeName := strings.Fields(typ)[2]; typeName != name {
			t.Errorf("TYPE names %q but HELP names %q", typeName, name)
		}
		if !strings.HasPrefix(sample, name) {
			t.Errorf("sample %q does not match declared metric %q", sample, name)
		}
		names = append(names, name)
	}
	return names
}

func TestWritePrometheusConformance(t *testing.T) {
	r := New()
	r.Add(CtrMILPNodes, 1234)
	r.Add(CtrBGPUpdates, 9)
	r.Add("weird name-with.chars", 1)
	r.Set("table_size", 77)
	r.Set("queue_depth", -3)

	var b bytes.Buffer
	if err := r.WritePrometheus(&b, PromOptions{}); err != nil {
		t.Fatal(err)
	}
	names := checkExposition(t, b.String())
	if len(names) != 5 {
		t.Fatalf("got %d metrics, want 5:\n%s", len(names), b.String())
	}
	// Counters (sorted, _total-suffixed) precede gauges (sorted).
	want := []string{
		"chameleon_bgp_messages_update_total",
		"chameleon_milp_nodes_explored_total",
		"chameleon_weird_name_with_chars_total",
		"chameleon_queue_depth",
		"chameleon_table_size",
	}
	for i, n := range want {
		if names[i] != n {
			t.Errorf("metric %d = %q, want %q (stable sort order)", i, names[i], n)
		}
	}
	if !strings.Contains(b.String(), "chameleon_table_size 77\n") {
		t.Errorf("gauge sample missing:\n%s", b.String())
	}
	if !strings.Contains(b.String(), "chameleon_queue_depth -3\n") {
		t.Errorf("negative gauge sample missing:\n%s", b.String())
	}

	// Byte-stable across repeated scrapes of an unchanged recorder.
	var b2 bytes.Buffer
	if err := r.WritePrometheus(&b2, PromOptions{}); err != nil {
		t.Fatal(err)
	}
	if b.String() != b2.String() {
		t.Error("two scrapes of an idle recorder differ")
	}
}

func TestWritePrometheusLabelEscaping(t *testing.T) {
	r := New()
	r.Add(CtrChaosCases, 5)
	var b bytes.Buffer
	err := r.WritePrometheus(&b, PromOptions{
		ConstLabels: map[string]string{
			"suite":    `abi"lene\path` + "\nnext",
			"bad-name": "v",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	dump := b.String()
	checkExposition(t, dump)
	want := `chameleon_chaos_cases_total{bad_name="v",suite="abi\"lene\\path\nnext"} 5`
	if !strings.Contains(dump, want+"\n") {
		t.Errorf("escaped sample line missing:\nwant %s\ngot:\n%s", want, dump)
	}
}

func TestWritePrometheusNilRecorder(t *testing.T) {
	var r *Recorder
	var b bytes.Buffer
	if err := r.WritePrometheus(&b, PromOptions{}); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Errorf("nil recorder exposed %q", b.String())
	}
}

func TestHandlerEndpoints(t *testing.T) {
	r := New()
	r.Add(CtrSimEvents, 11)
	srv := httptest.NewServer(Handler(r, ServeOptions{Prom: PromOptions{ConstLabels: map[string]string{"job": "test"}}}))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != 200 || body != "ok\n" {
		t.Errorf("/healthz = %d %q", code, body)
	}
	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	checkExposition(t, body)
	if !strings.Contains(body, `chameleon_sim_events_processed_total{job="test"} 11`) {
		t.Errorf("/metrics missing live counter:\n%s", body)
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/ = %d", code)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
}
