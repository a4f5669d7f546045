// Package diff structurally compares two run bundles (internal/obs/bundle)
// and explains how the runs behind them differ. Matching part hashes short
// out immediately; for parts that differ it parses the canonical artifact
// formats and reports structured divergences — the first diverging record
// and every differing counter and histogram total for traces,
// record-by-record timeline alignment for violation timelines,
// entry alignment for supervisor journals — and, where the artifact
// carries causal provenance (timeline violation records), walks it to name
// the first diverging event's root cause.
//
// The empty report is the determinism gate: two runs of the same seeds
// must produce it at any parallelism, which CI enforces by running the
// harness twice (workers 1 vs NumCPU) and requiring `obsdiff` to exit 0.
package diff

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"chameleon/internal/monitor"
	"chameleon/internal/obs"
	"chameleon/internal/obs/bundle"
	"chameleon/internal/supervisor"
)

// DefaultMaxPerPart bounds per-part divergence listings. The first
// diverging event is always reported; the cap only trims the tail so a
// wholly different run does not produce megabytes of report.
const DefaultMaxPerPart = 25

// Divergence is one structural difference between the bundles.
type Divergence struct {
	// Part is the part name, or "manifest" for bundle-level mismatches.
	Part string
	// Kind classifies the difference: "meta", "missing-part",
	// "extra-part", "parse", "event", "line", "counter", "hist",
	// "journal", "content".
	Kind string
	// Detail is the human-readable description (may span lines).
	Detail string
	// A and B render the two sides' diverging records, where record-level
	// alignment applies ("<absent>" when one side ended early).
	A, B string
	// RootCauseA/B name the causal provenance of the diverging event on
	// each side, where the artifact carries one (timeline violations).
	RootCauseA, RootCauseB string
}

// Report is the comparison's outcome.
type Report struct {
	AID, BID       string
	AScenario      string
	BScenario      string
	ASeed, BSeed   uint64
	IdenticalParts []string // byte-identical parts, name order
	ComparedParts  []string // structurally compared (hash differed), name order
	Divergences    []Divergence
	// Truncated counts divergences dropped by DefaultMaxPerPart.
	Truncated int
}

// Empty reports whether the bundles are structurally equivalent.
func (r *Report) Empty() bool { return len(r.Divergences) == 0 }

// First returns the headline divergence: the first event divergence whose
// records carry causal provenance (a diverging violation beats a diverging
// summary line, because the violation names its root cause), then the
// first event divergence, then the first line divergence, then anything.
// Nil on an empty report.
func (r *Report) First() *Divergence {
	for i := range r.Divergences {
		d := &r.Divergences[i]
		if d.Kind == "event" && (d.RootCauseA != "" || d.RootCauseB != "") {
			return d
		}
	}
	for i := range r.Divergences {
		if r.Divergences[i].Kind == "event" {
			return &r.Divergences[i]
		}
	}
	for i := range r.Divergences {
		if r.Divergences[i].Kind == "line" {
			return &r.Divergences[i]
		}
	}
	if len(r.Divergences) > 0 {
		return &r.Divergences[0]
	}
	return nil
}

// WriteText renders the report for humans (and CI logs).
func (r *Report) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if r.Empty() {
		fmt.Fprintf(bw, "bundles are structurally identical: %d part(s) byte-identical, %d compared structurally\n",
			len(r.IdenticalParts), len(r.ComparedParts))
		fmt.Fprintf(bw, "content address: %s\n", r.AID)
		return bw.Flush()
	}
	fmt.Fprintf(bw, "bundles diverge: %d divergence(s)\n", len(r.Divergences)+r.Truncated)
	fmt.Fprintf(bw, "  A: %s  scenario=%s seed=%d\n", short(r.AID), r.AScenario, r.ASeed)
	fmt.Fprintf(bw, "  B: %s  scenario=%s seed=%d\n", short(r.BID), r.BScenario, r.BSeed)
	if f := r.First(); f != nil && (f.A != "" || f.B != "") {
		fmt.Fprintf(bw, "first diverging event (%s):\n", f.Part)
		fmt.Fprintf(bw, "  A: %s\n", orAbsent(f.A))
		fmt.Fprintf(bw, "  B: %s\n", orAbsent(f.B))
		if f.RootCauseA != "" {
			fmt.Fprintf(bw, "  root cause (A): %s\n", f.RootCauseA)
		}
		if f.RootCauseB != "" {
			fmt.Fprintf(bw, "  root cause (B): %s\n", f.RootCauseB)
		}
	}
	fmt.Fprintln(bw, "divergences:")
	for _, d := range r.Divergences {
		fmt.Fprintf(bw, "  [%s] %s: %s\n", d.Part, d.Kind, d.Detail)
	}
	if r.Truncated > 0 {
		fmt.Fprintf(bw, "  … %d further divergence(s) truncated\n", r.Truncated)
	}
	return bw.Flush()
}

func short(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}

func orAbsent(s string) string {
	if s == "" {
		return "<absent>"
	}
	return s
}

// Bundles structurally compares two opened bundles.
func Bundles(a, b *bundle.Bundle) (*Report, error) {
	r := &Report{
		AID: a.Manifest.ID, BID: b.Manifest.ID,
		AScenario: a.Manifest.Scenario, BScenario: b.Manifest.Scenario,
		ASeed: a.Manifest.Seed, BSeed: b.Manifest.Seed,
	}
	if a.Manifest.Scenario != b.Manifest.Scenario {
		r.Divergences = append(r.Divergences, Divergence{Part: "manifest", Kind: "meta",
			Detail: fmt.Sprintf("scenario %q vs %q — the bundles record different runs", a.Manifest.Scenario, b.Manifest.Scenario)})
	}
	if a.Manifest.Seed != b.Manifest.Seed {
		r.Divergences = append(r.Divergences, Divergence{Part: "manifest", Kind: "meta",
			Detail: fmt.Sprintf("seed %d vs %d", a.Manifest.Seed, b.Manifest.Seed)})
	}

	names := make(map[string]bool)
	for _, p := range a.Manifest.Parts {
		names[p.Name] = true
	}
	for _, p := range b.Manifest.Parts {
		names[p.Name] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	for _, name := range sorted {
		pa, inA := a.Manifest.Part(name)
		pb, inB := b.Manifest.Part(name)
		switch {
		case !inB:
			r.Divergences = append(r.Divergences, Divergence{Part: name, Kind: "missing-part",
				Detail: fmt.Sprintf("present in A (%s, %d bytes), absent in B", pa.Kind, pa.Size)})
			continue
		case !inA:
			r.Divergences = append(r.Divergences, Divergence{Part: name, Kind: "extra-part",
				Detail: fmt.Sprintf("absent in A, present in B (%s, %d bytes)", pb.Kind, pb.Size)})
			continue
		}
		if pa.Kind != pb.Kind {
			r.Divergences = append(r.Divergences, Divergence{Part: name, Kind: "meta",
				Detail: fmt.Sprintf("kind %q in A vs %q in B", pa.Kind, pb.Kind)})
			continue
		}
		if pa.SHA256 == pb.SHA256 {
			r.IdenticalParts = append(r.IdenticalParts, name)
			continue
		}
		r.ComparedParts = append(r.ComparedParts, name)
		divs, err := diffPart(a, b, pa, pb)
		if err != nil {
			return nil, fmt.Errorf("diff: part %q: %w", name, err)
		}
		if len(divs) > DefaultMaxPerPart {
			r.Truncated += len(divs) - DefaultMaxPerPart
			divs = divs[:DefaultMaxPerPart]
		}
		r.Divergences = append(r.Divergences, divs...)
	}
	return r, nil
}

// Dirs opens and diffs two bundle directories, verifying part integrity
// first — a tampered or torn bundle is an error, not a divergence.
func Dirs(aDir, bDir string) (*Report, error) {
	a, err := bundle.Open(aDir)
	if err != nil {
		return nil, err
	}
	if err := a.Verify(); err != nil {
		return nil, err
	}
	b, err := bundle.Open(bDir)
	if err != nil {
		return nil, err
	}
	if err := b.Verify(); err != nil {
		return nil, err
	}
	return Bundles(a, b)
}

func diffPart(a, b *bundle.Bundle, pa, pb bundle.Part) ([]Divergence, error) {
	switch pa.Kind {
	case bundle.KindTimeline:
		return diffTimeline(a, b, pa, pb)
	case bundle.KindTrace:
		return diffTrace(a, b, pa, pb)
	case bundle.KindJournal:
		return diffJournal(a, b, pa, pb)
	}
	// plan, chaos, and any future text part
	la, err := readLines(a, pa)
	if err != nil {
		return nil, err
	}
	lb, err := readLines(b, pb)
	if err != nil {
		return nil, err
	}
	if d := firstLine(pa.Name, la, lb); d != nil {
		return []Divergence{*d}, nil
	}
	return []Divergence{{Part: pa.Name, Kind: "content",
		Detail: "bytes differ but every line is identical"}}, nil
}

// --- timelines -------------------------------------------------------------

// diffTimeline aligns two timeline artifacts record by record and, at the
// first disagreement, reports the event and its causal provenance — the
// root cause the monitor attributed to the violation that opened it.
func diffTimeline(a, b *bundle.Bundle, pa, pb bundle.Part) ([]Divergence, error) {
	return align(a, b, pa, pb, readTimeline, describeTimelineRecord,
		"event", "record", "records are identical (non-canonical artifact)"), nil
}

// align parses both parts with read and compares the records index by
// index, reporting one divergence of the given kind per record that
// differs, described on each side by describe (a description and a root
// cause, if it has one). noun names a record in the details. When every
// record matches although the bytes differed, the artifact was not
// canonical (unreachable given the round-trip contracts), and that is
// reported as "bytes differ but parsed <identical>" rather than equality.
func align[T any](a, b *bundle.Bundle, pa, pb bundle.Part,
	read func(*bundle.Bundle, bundle.Part) ([]T, error), describe func(*T) (desc, cause string),
	kind, noun, identical string) []Divergence {
	ra, err := read(a, pa)
	if err != nil {
		return []Divergence{{Part: pa.Name, Kind: "parse", Detail: "A: " + err.Error()}}
	}
	rb, err := read(b, pb)
	if err != nil {
		return []Divergence{{Part: pb.Name, Kind: "parse", Detail: "B: " + err.Error()}}
	}
	var divs []Divergence
	for i := 0; i < max(len(ra), len(rb)); i++ {
		if i < len(ra) && i < len(rb) {
			ja, _ := json.Marshal(&ra[i])
			jb, _ := json.Marshal(&rb[i])
			if bytes.Equal(ja, jb) {
				continue
			}
		}
		var da, db, ca, cb string
		if i < len(ra) {
			da, ca = describe(&ra[i])
		}
		if i < len(rb) {
			db, cb = describe(&rb[i])
		}
		divs = append(divs, Divergence{
			Part: pa.Name, Kind: kind,
			Detail: fmt.Sprintf("%s %d: %s ⇄ %s", noun, i+1, orAbsent(da), orAbsent(db)),
			A:      da, B: db,
			RootCauseA: ca, RootCauseB: cb,
		})
	}
	if len(divs) == 0 {
		divs = append(divs, Divergence{Part: pa.Name, Kind: "content",
			Detail: "bytes differ but parsed " + identical})
	}
	return divs
}

func readTimeline(b *bundle.Bundle, p bundle.Part) ([]monitor.Record, error) {
	raw, err := b.ReadPart(p)
	if err != nil {
		return nil, err
	}
	return monitor.ValidateJSONL(bytes.NewReader(raw))
}

// describeTimelineRecord renders a record and, for violations, its root
// cause — the provenance chain's answer to "what command or event caused
// the first diverging violation".
func describeTimelineRecord(rec *monitor.Record) (desc, cause string) {
	switch rec.Type {
	case "timeline":
		v, vns := 0, int64(0)
		if rec.Violations != nil {
			v = *rec.Violations
		}
		if rec.ViolationNS != nil {
			vns = *rec.ViolationNS
		}
		return fmt.Sprintf("timeline %q: %d violation(s), %.3fs violated, %d states checked",
			rec.Name, v, float64(vns)/1e9, rec.StatesChecked), ""
	case "violation":
		desc = fmt.Sprintf("violation %s#%d: %s prefix=%d [%.3fs, %.3fs) phase=%q nodes=%v",
			rec.Name, rec.Seq, rec.Invariant, rec.Prefix,
			float64(rec.StartNS)/1e9, float64(rec.EndNS)/1e9, rec.Phase, rec.Nodes)
		if rec.Open {
			desc += " (open)"
		}
		switch rec.CauseKind {
		case "init", "":
			cause = "initial convergence (no registered command or event)"
		default:
			var node, seq, hops any = "?", "?", "?"
			if rec.CauseNode != nil {
				node = *rec.CauseNode
			}
			if rec.CauseSeq != nil {
				seq = *rec.CauseSeq
			}
			if rec.HopDepth != nil {
				hops = *rec.HopDepth
			}
			blame := ""
			if rec.BlameNS != nil {
				blame = fmt.Sprintf(", blame %.3fs", float64(*rec.BlameNS)/1e9)
			}
			cause = fmt.Sprintf("%s %q on node %v (phase %q, cause seq %v, %v hop(s)%s)",
				rec.CauseKind, rec.Cause, node, rec.CausePhase, seq, hops, blame)
		}
		return desc, cause
	}
	raw, _ := json.Marshal(rec)
	return string(raw), ""
}

// --- traces and generic text parts ----------------------------------------

// total is a counter or histogram total record of a trace.
type total struct {
	Type    string           `json:"type"`
	Name    string           `json:"name"`
	Value   int64            `json:"value"`
	Buckets map[string]int64 `json:"buckets"`
	Sum     int64            `json:"sum"`
	Count   int64            `json:"count"`
}

// String renders the total: a counter's value, or a histogram's samples,
// sum and buckets in bound order ("3 samples, sum 9 le1=1 le4=2").
func (t total) String() string {
	if t.Type == "counter" {
		return fmt.Sprint(t.Value)
	}
	les := make([]string, 0, len(t.Buckets))
	for le := range t.Buckets {
		les = append(les, le)
	}
	sort.Slice(les, func(i, j int) bool { // numeric order for decimal bounds
		return len(les[i]) < len(les[j]) || len(les[i]) == len(les[j]) && les[i] < les[j]
	})
	s := fmt.Sprintf("%d samples, sum %d", t.Count, t.Sum)
	for _, le := range les {
		s += fmt.Sprintf(" le%s=%d", le, t.Buckets[le])
	}
	return s
}

// diffTrace compares two trace dumps. Both must validate as traces (a part
// that does not is a parse divergence); then the first differing line —
// trace artifacts are canonical byte streams, spans in ID order, so it IS
// the first structural divergence — and every differing counter and
// histogram total, by name, compared exactly. Every counter and histogram
// is a pure function of the run, so none is exempt.
func diffTrace(a, b *bundle.Bundle, pa, pb bundle.Part) ([]Divergence, error) {
	la, ta, err := readTrace(a, pa)
	if err != nil {
		return []Divergence{{Part: pa.Name, Kind: "parse", Detail: "A: " + err.Error()}}, nil
	}
	lb, tb, err := readTrace(b, pb)
	if err != nil {
		return []Divergence{{Part: pb.Name, Kind: "parse", Detail: "B: " + err.Error()}}, nil
	}
	var divs []Divergence
	if d := firstLine(pa.Name, la, lb); d != nil {
		divs = append(divs, *d)
	}
	keys := make([]string, 0, len(ta)+len(tb))
	for k := range ta {
		keys = append(keys, k)
	}
	for k := range tb {
		if _, ok := ta[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys) // counters, then histograms, each in name order
	for _, k := range keys {
		x, inA := ta[k]
		y, inB := tb[k]
		d := Divergence{Part: pa.Name, Kind: x.Type}
		switch {
		case !inB:
			d.Detail = fmt.Sprintf("%s: %s in A, absent in B", k, x)
		case !inA:
			d.Kind, d.Detail = y.Type, fmt.Sprintf("%s: absent in A, %s in B", k, y)
		case x.String() != y.String():
			d.Detail = fmt.Sprintf("%s: %s vs %s", k, x, y)
		default:
			continue
		}
		divs = append(divs, d)
	}
	if len(divs) == 0 { // the line split drops a '\r' and a missing final newline
		divs = append(divs, Divergence{Part: pa.Name, Kind: "content",
			Detail: "lines agree; bytes differ in line endings"})
	}
	return divs, nil
}

// readTrace validates a trace part and returns its lines and its counter
// and histogram totals keyed "counter <name>" / "hist <name>".
func readTrace(b *bundle.Bundle, p bundle.Part) ([]string, map[string]total, error) {
	raw, err := b.ReadPart(p)
	if err != nil {
		return nil, nil, err
	}
	if _, err := obs.ValidateJSONL(bytes.NewReader(raw)); err != nil {
		return nil, nil, err
	}
	all, err := splitLines(raw)
	if err != nil {
		return nil, nil, err
	}
	totals := make(map[string]total)
	for _, line := range all {
		var t total
		if json.Unmarshal([]byte(line), &t) == nil && (t.Type == "counter" || t.Type == "hist") {
			totals[t.Type+" "+t.Name] = t
		}
	}
	return all, totals, nil
}

// firstLine reports the first differing line of two text parts, describing
// JSON lines structurally where possible; nil when every line agrees.
func firstLine(part string, la, lb []string) *Divergence {
	for i := 0; i < len(la) || i < len(lb); i++ {
		var sa, sb string
		if i < len(la) {
			sa = la[i]
		}
		if i < len(lb) {
			sb = lb[i]
		}
		if sa == sb {
			continue
		}
		da, db := describeLine(sa), describeLine(sb)
		if da == db {
			// The compact rendering hides the differing field — show the
			// raw lines rather than two identical descriptions.
			da, db = truncate(sa), truncate(sb)
		}
		return &Divergence{
			Part: part, Kind: "line",
			Detail: fmt.Sprintf("line %d: %s ⇄ %s", i+1, orAbsent(da), orAbsent(db)),
			A:      da, B: db,
		}
	}
	return nil
}

func readLines(b *bundle.Bundle, p bundle.Part) ([]string, error) {
	raw, err := b.ReadPart(p)
	if err != nil {
		return nil, err
	}
	return splitLines(raw)
}

func splitLines(raw []byte) ([]string, error) {
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	return lines, sc.Err()
}

// describeLine renders one artifact line compactly: span lines by their
// structure, everything else truncated verbatim.
func describeLine(line string) string {
	if line == "" {
		return ""
	}
	var span struct {
		Type     string `json:"type"`
		ID       int    `json:"id"`
		Name     string `json:"name"`
		Start    uint64 `json:"start_tick"`
		End      uint64 `json:"end_tick"`
		SimStart int64  `json:"sim_start_ns"`
		SimEnd   int64  `json:"sim_end_ns"`
	}
	if err := json.Unmarshal([]byte(line), &span); err == nil && span.Type == "span" {
		return fmt.Sprintf("span #%d %q ticks [%d,%d] sim [%dns,%dns]",
			span.ID, span.Name, span.Start, span.End, span.SimStart, span.SimEnd)
	}
	return truncate(line)
}

func truncate(line string) string {
	const max = 160
	if len(line) > max {
		return line[:max] + "…"
	}
	return line
}

// --- journals --------------------------------------------------------------

// diffJournal aligns two supervisor execution journals entry by entry.
// Journal entries are sim-time-stamped and deterministic, so the first
// disagreeing entry names the recovery decision where the runs parted. A
// resumed run shares its original's journal prefix — diffing the resumed
// bundle against the original therefore shows exactly what the resume
// added, never a rewrite of history.
func diffJournal(a, b *bundle.Bundle, pa, pb bundle.Part) ([]Divergence, error) {
	read := func(b *bundle.Bundle, p bundle.Part) ([]supervisor.Entry, error) {
		return supervisor.ReadJournal(b.PartPath(p))
	}
	describe := func(e *supervisor.Entry) (string, string) { return supervisor.DescribeEntry(*e), "" }
	return align(a, b, pa, pb, read, describe,
		"journal", "entry", "entries are identical (non-canonical journal)"), nil
}
