// Package diff structurally compares two run bundles (internal/obs/bundle)
// and explains how the runs behind them differ. Matching part hashes short
// out immediately; for parts that differ it parses the canonical artifact
// formats and reports structured divergences — aligned span-stream records
// for traces, counter/gauge/histogram deltas with noise tolerance for
// metrics, record-by-record timeline alignment for violation timelines,
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

// Options tune the comparison.
type Options struct {
	// Tolerance is the relative slack allowed on counter, gauge and
	// histogram values before a delta counts as a divergence: values a and
	// b agree when |a−b| ≤ Tolerance·max(|a|,|b|,1). Zero (the default)
	// demands exact equality — the determinism gate's setting.
	Tolerance float64
	// IgnoreMetrics names counters/gauges exempt from comparison in both
	// metrics parts and trace dumps. Nil selects DefaultIgnoredMetrics;
	// an empty non-nil map exempts nothing.
	IgnoreMetrics map[string]bool
}

// DefaultIgnoredMetrics are metric names that are scheduling- or
// environment-dependent by design and therefore never evidence of a
// diverging run: live-stream subscriber drops depend on how fast an
// /events client drained during the run.
var DefaultIgnoredMetrics = map[string]bool{
	obs.CtrStreamDropped: true,
}

// DefaultMaxPerPart bounds per-part divergence listings. The first
// diverging event is always reported; the cap only trims the tail so a
// wholly different run does not produce megabytes of report.
const DefaultMaxPerPart = 25

func (o Options) ignored() map[string]bool {
	if o.IgnoreMetrics == nil {
		return DefaultIgnoredMetrics
	}
	return o.IgnoreMetrics
}

// agree applies the relative tolerance.
func (o Options) agree(a, b int64) bool {
	if a == b {
		return true
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if m < 0 {
		m = -m
	}
	if bb := b; bb < 0 && -bb > m {
		m = -bb
	} else if bb > m {
		m = bb
	}
	if m < 1 {
		m = 1
	}
	return float64(d) <= o.Tolerance*float64(m)
}

// Divergence is one structural difference between the bundles.
type Divergence struct {
	// Part is the part name, or "manifest" for bundle-level mismatches.
	Part string
	// Kind classifies the difference: "meta", "missing-part",
	// "extra-part", "parse", "event", "line", "counter", "gauge", "hist",
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

// Empty reports whether the bundles are structurally equivalent under the
// options used.
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
		if r.AID == r.BID {
			fmt.Fprintf(bw, "content address: %s\n", r.AID)
		} else {
			fmt.Fprintf(bw, "content addresses differ (%s vs %s) but every difference is within tolerance\n",
				short(r.AID), short(r.BID))
		}
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
func Bundles(a, b *bundle.Bundle, opts Options) (*Report, error) {
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
		divs, err := diffPart(a, b, pa, pb, opts)
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
func Dirs(aDir, bDir string, opts Options) (*Report, error) {
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
	return Bundles(a, b, opts)
}

func diffPart(a, b *bundle.Bundle, pa, pb bundle.Part, opts Options) ([]Divergence, error) {
	switch pa.Kind {
	case bundle.KindTimeline:
		return diffTimeline(a, b, pa, pb)
	case bundle.KindMetrics:
		return diffMetrics(a, b, pa, pb, opts)
	case bundle.KindTrace:
		return diffTrace(a, b, pa, pb, opts)
	case bundle.KindJournal:
		return diffJournal(a, b, pa, pb)
	default: // plan, chaos, and any future text part
		return diffLines(a, b, pa, pb, nil)
	}
}

// --- timelines -------------------------------------------------------------

// diffTimeline aligns two timeline artifacts record by record and, at the
// first disagreement, reports the event and its causal provenance — the
// root cause the monitor attributed to the violation that opened it.
func diffTimeline(a, b *bundle.Bundle, pa, pb bundle.Part) ([]Divergence, error) {
	ra, err := readTimeline(a, pa)
	if err != nil {
		return []Divergence{{Part: pa.Name, Kind: "parse", Detail: "A: " + err.Error()}}, nil
	}
	rb, err := readTimeline(b, pb)
	if err != nil {
		return []Divergence{{Part: pb.Name, Kind: "parse", Detail: "B: " + err.Error()}}, nil
	}
	var divs []Divergence
	n := len(ra)
	if len(rb) > n {
		n = len(rb)
	}
	for i := 0; i < n; i++ {
		var da, db string
		var ca, cb string
		same := false
		if i < len(ra) && i < len(rb) {
			ja, _ := json.Marshal(&ra[i])
			jb, _ := json.Marshal(&rb[i])
			same = bytes.Equal(ja, jb)
		}
		if same {
			continue
		}
		if i < len(ra) {
			da, ca = describeTimelineRecord(&ra[i])
		}
		if i < len(rb) {
			db, cb = describeTimelineRecord(&rb[i])
		}
		divs = append(divs, Divergence{
			Part: pa.Name, Kind: "event",
			Detail: fmt.Sprintf("record %d: %s ⇄ %s", i+1, orAbsent(da), orAbsent(db)),
			A:      da, B: db,
			RootCauseA: ca, RootCauseB: cb,
		})
	}
	if len(divs) == 0 {
		// Hashes differed but every record re-marshals identically — the
		// artifact was not canonical (should be unreachable given the
		// round-trip contract); surface it rather than claiming equality.
		divs = append(divs, Divergence{Part: pa.Name, Kind: "content",
			Detail: "bytes differ but parsed records are identical (non-canonical artifact)"})
	}
	return divs, nil
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

// --- metrics ---------------------------------------------------------------

func diffMetrics(a, b *bundle.Bundle, pa, pb bundle.Part, opts Options) ([]Divergence, error) {
	da, err := readMetrics(a, pa)
	if err != nil {
		return []Divergence{{Part: pa.Name, Kind: "parse", Detail: "A: " + err.Error()}}, nil
	}
	db, err := readMetrics(b, pb)
	if err != nil {
		return []Divergence{{Part: pb.Name, Kind: "parse", Detail: "B: " + err.Error()}}, nil
	}
	ignored := opts.ignored()
	var divs []Divergence
	diffMap := func(kind string, ma, mb map[string]int64) {
		for _, name := range unionKeys(ma, mb) {
			if ignored[name] {
				continue
			}
			va, inA := ma[name]
			vb, inB := mb[name]
			switch {
			case !inB:
				divs = append(divs, Divergence{Part: pa.Name, Kind: kind,
					Detail: fmt.Sprintf("%s %s: %d in A, absent in B", kind, name, va)})
			case !inA:
				divs = append(divs, Divergence{Part: pa.Name, Kind: kind,
					Detail: fmt.Sprintf("%s %s: absent in A, %d in B", kind, name, vb)})
			case !opts.agree(va, vb):
				divs = append(divs, Divergence{Part: pa.Name, Kind: kind,
					Detail: fmt.Sprintf("%s %s: %d vs %d (Δ%+d)", kind, name, va, vb, vb-va)})
			}
		}
	}
	diffMap("counter", da.Counters, db.Counters)
	diffMap("gauge", da.Gauges, db.Gauges)
	divs = append(divs, diffHists(pa.Name, da.Hists, db.Hists, opts)...)
	if len(divs) == 0 {
		divs = append(divs, Divergence{Part: pa.Name, Kind: "content",
			Detail: "bytes differ but every metric is within tolerance"})
		if opts.Tolerance > 0 {
			divs = nil // within tolerance IS equality when tolerance was asked for
		}
	}
	return divs, nil
}

func readMetrics(b *bundle.Bundle, p bundle.Part) (*obs.MetricsDump, error) {
	raw, err := b.ReadPart(p)
	if err != nil {
		return nil, err
	}
	return obs.ParseMetrics(bytes.NewReader(raw))
}

func diffHists(part string, ha, hb []obs.HistSnapshot, opts Options) []Divergence {
	ignored := opts.ignored()
	ma := make(map[string]obs.HistSnapshot, len(ha))
	for _, h := range ha {
		ma[h.Name] = h
	}
	mb := make(map[string]obs.HistSnapshot, len(hb))
	for _, h := range hb {
		mb[h.Name] = h
	}
	names := make(map[string]int64, len(ma)+len(mb))
	for n := range ma {
		names[n] = 0
	}
	for n := range mb {
		names[n] = 0
	}
	var divs []Divergence
	for _, name := range sortedKeys(names) {
		if ignored[name] {
			continue
		}
		xa, inA := ma[name]
		xb, inB := mb[name]
		switch {
		case !inB:
			divs = append(divs, Divergence{Part: part, Kind: "hist",
				Detail: fmt.Sprintf("hist %s: present in A (%d samples), absent in B", name, xa.Count)})
			continue
		case !inA:
			divs = append(divs, Divergence{Part: part, Kind: "hist",
				Detail: fmt.Sprintf("hist %s: absent in A, present in B (%d samples)", name, xb.Count)})
			continue
		}
		if !opts.agree(xa.Count, xb.Count) || !opts.agree(xa.Sum, xb.Sum) {
			divs = append(divs, Divergence{Part: part, Kind: "hist",
				Detail: fmt.Sprintf("hist %s: count %d vs %d, sum %d vs %d",
					name, xa.Count, xb.Count, xa.Sum, xb.Sum)})
			continue
		}
		ba := bucketMap(xa)
		bb := bucketMap(xb)
		for _, le := range sortedKeys(union(ba, bb)) {
			if !opts.agree(ba[le], bb[le]) {
				divs = append(divs, Divergence{Part: part, Kind: "hist",
					Detail: fmt.Sprintf("hist %s bucket le=%s: %d vs %d", name, le, ba[le], bb[le])})
			}
		}
	}
	return divs
}

func bucketMap(h obs.HistSnapshot) map[string]int64 {
	m := make(map[string]int64, len(h.Buckets))
	for _, b := range h.Buckets {
		m[fmt.Sprintf("%d", b.Le)] = b.Count
	}
	return m
}

// --- traces and generic text parts ----------------------------------------

// diffTrace line-diffs a trace dump. Trace artifacts are canonical byte
// streams (spans in ID order, metrics in name order), so the first
// differing line IS the first structural divergence; the line is then
// parsed to describe it. Ignored metric names are filtered first, so a
// scheduling-dependent counter alone cannot fail the gate.
func diffTrace(a, b *bundle.Bundle, pa, pb bundle.Part, opts Options) ([]Divergence, error) {
	ignored := opts.ignored()
	skip := func(line string) bool {
		var head struct {
			Type string `json:"type"`
			Name string `json:"name"`
		}
		if err := json.Unmarshal([]byte(line), &head); err != nil {
			return false
		}
		return (head.Type == "counter" || head.Type == "gauge") && ignored[head.Name]
	}
	return diffLines(a, b, pa, pb, skip)
}

// diffLines reports the first differing line of two text parts (skipping
// lines the filter exempts), describing JSON lines structurally where
// possible.
func diffLines(a, b *bundle.Bundle, pa, pb bundle.Part, skip func(string) bool) ([]Divergence, error) {
	la, err := readLines(a, pa, skip)
	if err != nil {
		return nil, err
	}
	lb, err := readLines(b, pb, skip)
	if err != nil {
		return nil, err
	}
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
		return []Divergence{{
			Part: pa.Name, Kind: "line",
			Detail: fmt.Sprintf("line %d: %s ⇄ %s", i+1, orAbsent(da), orAbsent(db)),
			A:      da, B: db,
		}}, nil
	}
	return []Divergence{{Part: pa.Name, Kind: "content",
		Detail: "bytes differ only in exempted lines"}}, nil
}

func readLines(b *bundle.Bundle, p bundle.Part, skip func(string) bool) ([]string, error) {
	raw, err := b.ReadPart(p)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var lines []string
	for sc.Scan() {
		line := sc.Text()
		if skip != nil && skip(line) {
			continue
		}
		lines = append(lines, line)
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
	ea, err := supervisor.ReadJournal(a.PartPath(pa))
	if err != nil {
		return []Divergence{{Part: pa.Name, Kind: "parse", Detail: "A: " + err.Error()}}, nil
	}
	eb, err := supervisor.ReadJournal(b.PartPath(pb))
	if err != nil {
		return []Divergence{{Part: pb.Name, Kind: "parse", Detail: "B: " + err.Error()}}, nil
	}
	var divs []Divergence
	n := len(ea)
	if len(eb) > n {
		n = len(eb)
	}
	for i := 0; i < n; i++ {
		var da, db string
		same := false
		if i < len(ea) && i < len(eb) {
			ja, _ := json.Marshal(&ea[i])
			jb, _ := json.Marshal(&eb[i])
			same = bytes.Equal(ja, jb)
		}
		if same {
			continue
		}
		if i < len(ea) {
			da = supervisor.DescribeEntry(ea[i])
		}
		if i < len(eb) {
			db = supervisor.DescribeEntry(eb[i])
		}
		divs = append(divs, Divergence{
			Part: pa.Name, Kind: "journal",
			Detail: fmt.Sprintf("entry %d: %s ⇄ %s", i+1, orAbsent(da), orAbsent(db)),
			A:      da, B: db,
		})
	}
	if len(divs) == 0 {
		divs = append(divs, Divergence{Part: pa.Name, Kind: "content",
			Detail: "bytes differ but parsed entries are identical (non-canonical journal)"})
	}
	return divs, nil
}

// --- small helpers ---------------------------------------------------------

func unionKeys(a, b map[string]int64) []string {
	return sortedKeys(union(a, b))
}

func union(a, b map[string]int64) map[string]int64 {
	u := make(map[string]int64, len(a)+len(b))
	for k := range a {
		u[k] = 0
	}
	for k := range b {
		u[k] = 0
	}
	return u
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
