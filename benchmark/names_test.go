package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestBenchmarkJSONMatchesNames fails when BENCHMARK.json and names.go drift,
// or when BENCHMARK.json leaves the limits the driver enforces.
func TestBenchmarkJSONMatchesNames(t *testing.T) {
	b, err := loadBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, names.go %d", len(b.Workloads), len(workloadDefs))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadDefs[i].Name || w.Why != workloadDefs[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, names.go %q/%q", i, w.Name, w.Why, workloadDefs[i].Name, workloadDefs[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	seen := map[string]bool{}
	check := func(kind string, i int, name, unit, better string, d metricDef) {
		if name != d.Name || unit != d.Unit || better != d.Better {
			t.Errorf("%s %d: BENCHMARK.json %s/%s/%s, names.go %s/%s/%s", kind, i, name, unit, better, d.Name, d.Unit, d.Better)
		}
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) || seen[name] {
			t.Errorf("%s %s: bad or repeated name, or bad unit %q", kind, name, unit)
		}
		seen[name] = true
	}
	if len(b.EndToEnd) != len(endToEndDefs) || len(b.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, names.go %d+%d", len(b.EndToEnd), len(b.PerLayer), len(endToEndDefs), len(perLayerDefs))
	}
	for i, m := range b.EndToEnd {
		check("end_to_end", i, m.Name, m.Unit, m.Better, endToEndDefs[i])
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %g outside [0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range b.PerLayer {
		check("per_layer", i, m.Name, m.Unit, m.Better, perLayerDefs[i])
	}
	if !seen["setup_s"] {
		t.Error("end_to_end lacks setup_s")
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %q, want [benchmark]", b.Paths)
	}
}

// TestListSpellsEveryName checks that -list prints every workload and metric
// exactly as BENCHMARK.json spells it.
func TestListSpellsEveryName(t *testing.T) {
	b, err := loadBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := printList(&buf); err != nil {
		t.Fatal(err)
	}
	fields := map[string]bool{}
	for _, f := range strings.Fields(buf.String()) {
		fields[f] = true
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	for _, m := range b.EndToEnd {
		names = append(names, m.Name)
	}
	for _, m := range b.PerLayer {
		names = append(names, m.Name)
	}
	for _, n := range names {
		if !fields[n] {
			t.Errorf("-list does not print %q", n)
		}
	}
}

func TestParseEntry(t *testing.T) {
	for in, want := range map[string]entry{
		"Abilene":            {Topology: "Abilene"},
		"Sprint+3":           {Topology: "Sprint", Extra: 3},
		"Xspedius/eq4":       {Topology: "Xspedius", Eq4: true},
		"Aarnet+2/eq4":       {Topology: "Aarnet", Extra: 2, Eq4: true},
		"Cesnet201006/reach": {Topology: "Cesnet201006"},
	} {
		got, err := parseEntry(in)
		if err != nil || got != want {
			t.Errorf("parseEntry(%q) = %+v, %v; want %+v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "+3", "Abilene+x", "Abilene+0", "Abilene/ltl"} {
		if _, err := parseEntry(in); err == nil {
			t.Errorf("parseEntry(%q) accepted", in)
		}
	}
	for _, name := range []string{"plan-zoo", "plan-hard", "exec-replay"} {
		if _, err := loadEntries(name, 0); err != nil {
			t.Error(err)
		}
	}
}

// TestSelfTimesSumToRoots pins the property the per-layer table rests on.
func TestSelfTimesSumToRoots(t *testing.T) {
	tr := newTracer()
	endPass := tr.begin("bench.pass")
	for i := 0; i < 3; i++ {
		_, endOp := tr.beginOp()
		end := tr.begin("sim.clone")
		inner := tr.begin("bgp.copy")
		inner()
		end()
		tr.begin("runtime.execute")()
		endOp()
	}
	endPass()
	var self, roots int64
	for i, ns := range tr.selfNS() {
		if ns < 0 {
			t.Errorf("span %d has negative self time %d", i, ns)
		}
		self += ns
		if s := tr.spans[i]; s.Parent < 0 {
			roots += s.EndNS - s.StartNS
		}
	}
	if self != roots {
		t.Errorf("self times sum to %d ns, root spans to %d ns", self, roots)
	}
	if got := len(tr.perOp()); got != 3 {
		t.Errorf("perOp has %d ops, want 3", got)
	}
}

func TestTailOf(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, rule := tailOf(xs); rule != "p90" || v < 89 || v > 90 {
		t.Errorf("tailOf(100 samples) = %v, %s", v, rule)
	}
	if v, _ := tailOf(xs[:94]); v != 83 {
		t.Errorf("tailOf(94 samples) = %v, want the sample with ten beyond it (83)", v)
	}
	if v, rule := tailOf(xs[:5]); v != 4 || rule != "max" {
		t.Errorf("tailOf(5 samples) = %v, %s", v, rule)
	}
}
