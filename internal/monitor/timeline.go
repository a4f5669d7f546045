package monitor

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"time"

	"chameleon/internal/bgp"
	"chameleon/internal/topology"
)

// RootCause attributes a violation to the command or external event whose
// BGP churn flipped the offending forwarding entry (the simulator's causal
// provenance layer, sim/cause.go). Kind is "command", "event" or — for
// state with no registered root, like initial bring-up convergence —
// "init"; every violation carries a non-empty Kind.
type RootCause struct {
	Kind  string
	Label string          // command description or event name
	Node  topology.NodeID // command's target router
	Phase string          // phase active when the cause was registered
	Seq   uint64          // cause registration ordinal
	// Hops is the BGP propagation depth at violation onset: how many
	// message hops separate the root event from the state change that
	// opened the violation.
	Hops int
	// Latency is the blame latency: simulated time from the root cause
	// firing (command applied, event executed) to the violation's onset.
	Latency time.Duration
}

// Violation is one maximal interval during which one invariant was
// violated for one prefix: [Start, End) in simulated time. Nodes is the
// union of all routers affected at any point of the interval (the blast
// radius); Phase is the execution phase active at onset; Cause is the
// causal attribution of the snapshot that opened the interval.
type Violation struct {
	Invariant string
	Prefix    bgp.Prefix
	Start     time.Duration
	End       time.Duration
	StartTick uint64
	Phase     string
	Nodes     []topology.NodeID
	Cause     RootCause
	// Open marks a violation that never recovered before the monitor
	// finished (its End is the finish time, not a recovery).
	Open bool
}

// Duration returns the length of the violation interval.
func (v *Violation) Duration() time.Duration { return v.End - v.Start }

// Timeline is the complete output of one monitored run.
type Timeline struct {
	Name          string
	StatesChecked int
	End           time.Duration
	// Violations are ordered by close time (event order), which is
	// deterministic for a deterministic simulation.
	Violations []Violation
}

// TotalViolation returns the measure of the union of all violation
// intervals: the simulated time during which at least one invariant was
// violated for at least one prefix — the paper's transient violation time
// (Fig. 1 / Fig. 9).
func (t *Timeline) TotalViolation() time.Duration {
	if len(t.Violations) == 0 {
		return 0
	}
	type iv struct{ s, e time.Duration }
	ivs := make([]iv, 0, len(t.Violations))
	for _, v := range t.Violations {
		if v.End > v.Start {
			ivs = append(ivs, iv{v.Start, v.End})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int {
		if a.s != b.s {
			return int(a.s - b.s)
		}
		return int(a.e - b.e)
	})
	var total, end time.Duration
	start := time.Duration(-1)
	for _, i := range ivs {
		if start < 0 || i.s > end {
			if start >= 0 {
				total += end - start
			}
			start, end = i.s, i.e
		} else if i.e > end {
			end = i.e
		}
	}
	if start >= 0 {
		total += end - start
	}
	return total
}

// ByInvariant returns the union violation time restricted to one invariant
// name.
func (t *Timeline) ByInvariant(name string) time.Duration {
	sub := Timeline{}
	for _, v := range t.Violations {
		if v.Invariant == name {
			sub.Violations = append(sub.Violations, v)
		}
	}
	return sub.TotalViolation()
}

// --- JSONL export ---------------------------------------------------------

// Record is one line of a timeline JSONL artifact. A timeline serializes
// as one "timeline" summary record followed by one "violation" record per
// violation, in order. All times are integer nanoseconds of simulated time
// — no wall-clock field exists, by design, so artifacts are byte-identical
// across re-runs.
type Record struct {
	Type      string `json:"type"` // "timeline" | "violation"
	Name      string `json:"name"`
	Seq       int    `json:"seq,omitempty"`
	Invariant string `json:"invariant,omitempty"`
	Prefix    int    `json:"prefix,omitempty"`
	StartNS   int64  `json:"start_ns,omitempty"`
	EndNS     int64  `json:"end_ns,omitempty"`
	DurNS     int64  `json:"duration_ns,omitempty"`
	Tick      uint64 `json:"tick,omitempty"`
	Phase     string `json:"phase,omitempty"`
	Nodes     []int  `json:"nodes,omitempty"`
	Open      bool   `json:"open,omitempty"`

	// Root-cause attribution ("violation" records only). CauseKind is
	// always present on violations ("command" | "event" | "init"); the
	// remaining fields are pointers so zero values (node 0, seq 0, hop
	// depth 0, zero blame latency) survive while summary records omit
	// them. CauseNode and CauseSeq appear only on rooted causes.
	CauseKind  string  `json:"cause_kind,omitempty"`
	Cause      string  `json:"cause,omitempty"`
	CauseNode  *int    `json:"cause_node,omitempty"`
	CausePhase string  `json:"cause_phase,omitempty"`
	CauseSeq   *uint64 `json:"cause_seq,omitempty"`
	HopDepth   *int    `json:"hop_depth,omitempty"`
	BlameNS    *int64  `json:"blame_ns,omitempty"`

	// Summary fields ("timeline" records only). Violations and ViolationNS
	// are pointers so a summary always carries them (even when zero) while
	// violation records omit them.
	StatesChecked int    `json:"states_checked,omitempty"`
	Violations    *int   `json:"violations,omitempty"`
	ViolationNS   *int64 `json:"violation_ns,omitempty"`
	EndOfRunNS    int64  `json:"end_of_run_ns,omitempty"`
}

// WriteJSONL appends the timeline to w: the summary record, then the
// violation records. Multiple timelines may share one file.
func (t *Timeline) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	nv, vns := len(t.Violations), int64(t.TotalViolation())
	if err := enc.Encode(Record{
		Type:          "timeline",
		Name:          t.Name,
		StatesChecked: t.StatesChecked,
		Violations:    &nv,
		ViolationNS:   &vns,
		EndOfRunNS:    int64(t.End),
	}); err != nil {
		return err
	}
	for i, v := range t.Violations {
		if err := enc.Encode(violationRecord(t.Name, i+1, &v)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// violationRecord renders one violation as its JSONL record; the live
// event stream publishes the same shape.
func violationRecord(name string, seq int, v *Violation) Record {
	nodes := make([]int, len(v.Nodes))
	for j, n := range v.Nodes {
		nodes[j] = int(n)
	}
	rec := Record{
		Type:      "violation",
		Name:      name,
		Seq:       seq,
		Invariant: v.Invariant,
		Prefix:    int(v.Prefix),
		StartNS:   int64(v.Start),
		EndNS:     int64(v.End),
		DurNS:     int64(v.Duration()),
		Tick:      v.StartTick,
		Phase:     v.Phase,
		Nodes:     nodes,
		Open:      v.Open,
		CauseKind: v.Cause.Kind,
		Cause:     v.Cause.Label,
	}
	hops, blame := v.Cause.Hops, int64(v.Cause.Latency)
	rec.HopDepth, rec.BlameNS = &hops, &blame
	if v.Cause.Kind != "" && v.Cause.Kind != "init" {
		node, seq := int(v.Cause.Node), v.Cause.Seq
		rec.CauseNode, rec.CauseSeq = &node, &seq
		rec.CausePhase = v.Cause.Phase
	}
	return rec
}

// WriteRecords re-emits parsed timeline records in the canonical JSONL
// form. WriteJSONL → ValidateJSONL → WriteRecords reproduces the original
// bytes exactly (the round-trip tests pin this), which is what lets the
// run-bundle differ treat timeline artifacts as canonical: any byte
// difference between two artifacts is a structural difference between the
// runs, never a serialization accident.
func WriteRecords(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ValidateJSONL structurally checks a timeline artifact: every line parses
// as a Record, violation records follow their timeline's summary record
// with 1-based consecutive seq numbers, intervals are well-formed
// (end ≥ start, duration = end − start, strictly ascending node lists),
// and each summary's violation count matches the records that follow. It
// returns the parsed records on success.
func ValidateJSONL(r io.Reader) ([]Record, error) {
	var recs []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	line := 0
	counts := make(map[string]int)    // name → violations seen
	announced := make(map[string]int) // name → violations promised
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("timeline line %d: %w", line, err)
		}
		switch rec.Type {
		case "timeline":
			if rec.Name == "" {
				return nil, fmt.Errorf("timeline line %d: summary without name", line)
			}
			if _, dup := announced[rec.Name]; dup {
				return nil, fmt.Errorf("timeline line %d: duplicate timeline %q", line, rec.Name)
			}
			if rec.Violations == nil || rec.ViolationNS == nil {
				return nil, fmt.Errorf("timeline line %d: summary missing violations/violation_ns", line)
			}
			announced[rec.Name] = *rec.Violations
		case "violation":
			promised, ok := announced[rec.Name]
			if !ok {
				return nil, fmt.Errorf("timeline line %d: violation for unannounced timeline %q", line, rec.Name)
			}
			counts[rec.Name]++
			if counts[rec.Name] > promised {
				return nil, fmt.Errorf("timeline line %d: more violations than %q announced (%d)", line, rec.Name, promised)
			}
			if rec.Seq != counts[rec.Name] {
				return nil, fmt.Errorf("timeline line %d: seq %d, want %d", line, rec.Seq, counts[rec.Name])
			}
			if rec.Invariant == "" {
				return nil, fmt.Errorf("timeline line %d: violation without invariant", line)
			}
			if rec.EndNS < rec.StartNS || rec.StartNS < 0 {
				return nil, fmt.Errorf("timeline line %d: bad interval [%d, %d)", line, rec.StartNS, rec.EndNS)
			}
			if rec.DurNS != rec.EndNS-rec.StartNS {
				return nil, fmt.Errorf("timeline line %d: duration %d ≠ end−start", line, rec.DurNS)
			}
			for j := 1; j < len(rec.Nodes); j++ {
				if rec.Nodes[j-1] >= rec.Nodes[j] {
					return nil, fmt.Errorf("timeline line %d: blast radius not strictly ascending", line)
				}
			}
			switch rec.CauseKind {
			case "init":
			case "command", "event":
				if rec.Cause == "" {
					return nil, fmt.Errorf("timeline line %d: %s cause without label", line, rec.CauseKind)
				}
				if rec.CauseSeq == nil {
					return nil, fmt.Errorf("timeline line %d: rooted cause without cause_seq", line)
				}
			case "":
				return nil, fmt.Errorf("timeline line %d: violation without cause_kind", line)
			default:
				return nil, fmt.Errorf("timeline line %d: unknown cause_kind %q", line, rec.CauseKind)
			}
			if rec.HopDepth == nil || rec.BlameNS == nil {
				return nil, fmt.Errorf("timeline line %d: violation without hop_depth/blame_ns", line)
			}
			if *rec.BlameNS < 0 {
				return nil, fmt.Errorf("timeline line %d: negative blame latency %d", line, *rec.BlameNS)
			}
		default:
			return nil, fmt.Errorf("timeline line %d: unknown record type %q", line, rec.Type)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for name, want := range announced {
		if counts[name] != want {
			return nil, fmt.Errorf("timeline %q: %d violation records, summary announced %d", name, counts[name], want)
		}
	}
	return recs, nil
}
