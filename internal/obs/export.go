package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// jsonSpan is the JSONL wire form of one span. Field order is fixed by the
// struct; map values marshal with sorted keys — the whole line stream is a
// deterministic function of the recorded data.
type jsonSpan struct {
	Type      string            `json:"type"` // "span"
	ID        int               `json:"id"`
	Parent    int               `json:"parent"`
	Name      string            `json:"name"`
	Attrs     map[string]string `json:"attrs,omitempty"`
	StartTick uint64            `json:"start_tick"`
	EndTick   uint64            `json:"end_tick"`
	SimStart  int64             `json:"sim_start_ns"`
	SimEnd    int64             `json:"sim_end_ns"`
	Counters  map[string]int64  `json:"counters,omitempty"`
}

type jsonMetric struct {
	Type  string `json:"type"` // "counter"
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// jsonHist is the JSONL wire form of one histogram: non-cumulative bucket
// counts keyed by the rendered inclusive upper bound (map values marshal
// with sorted keys — numerically unordered but deterministic) plus the sum
// and sample count.
type jsonHist struct {
	Type    string           `json:"type"` // "hist"
	Name    string           `json:"name"`
	Buckets map[string]int64 `json:"buckets"`
	Sum     int64            `json:"sum"`
	Count   int64            `json:"count"`
}

func histToJSON(h HistSnapshot) jsonHist {
	jh := jsonHist{Type: "hist", Name: h.Name, Sum: h.Sum, Count: h.Count,
		Buckets: make(map[string]int64, len(h.Buckets))}
	for _, b := range h.Buckets {
		jh.Buckets[fmt.Sprintf("%d", b.Le)] = b.Count
	}
	return jh
}

// WriteJSONL emits the trace: one JSON object per line — every span in ID
// order, then every counter in name order, then every histogram. The output
// is byte-identical for identical recordings.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	spans, counters := r.snapshot()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range spans {
		sp := &spans[i]
		js := jsonSpan{
			Type: "span", ID: sp.ID, Parent: sp.Parent, Name: sp.Name,
			StartTick: sp.StartTick, EndTick: sp.EndTick,
			SimStart: sp.SimStart, SimEnd: sp.SimEnd,
			Counters: sp.Counters,
		}
		if len(sp.Attrs) > 0 {
			js.Attrs = make(map[string]string, len(sp.Attrs))
			for _, a := range sp.Attrs {
				js.Attrs[a.Key] = a.Value
			}
		}
		if err := enc.Encode(js); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(counters) {
		if err := enc.Encode(jsonMetric{Type: "counter", Name: name, Value: counters[name]}); err != nil {
			return err
		}
	}
	for _, h := range r.Histograms() {
		if err := enc.Encode(histToJSON(h)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Validate checks span-tree well-formedness: every span ended, every parent
// a recorded span that opened before and closed after its child, and
// simulated timestamps non-decreasing within and across nesting (where a
// sim clock was installed). It returns the first violation found.
func (r *Recorder) Validate() error {
	if r == nil {
		return nil
	}
	spans, _ := r.snapshot()
	return validateSpans(spans)
}

func validateSpans(spans []spanRecord) error {
	byID := make(map[int]*spanRecord, len(spans))
	for i := range spans {
		sp := &spans[i]
		if sp.ID <= 0 {
			return fmt.Errorf("obs: span %q has invalid id %d", sp.Name, sp.ID)
		}
		if byID[sp.ID] != nil {
			return fmt.Errorf("obs: duplicate span id %d", sp.ID)
		}
		byID[sp.ID] = sp
	}
	for i := range spans {
		sp := &spans[i]
		if sp.EndTick == 0 {
			return fmt.Errorf("obs: span %d %q never ended", sp.ID, sp.Name)
		}
		if sp.EndTick < sp.StartTick {
			return fmt.Errorf("obs: span %d %q ends (tick %d) before it starts (tick %d)",
				sp.ID, sp.Name, sp.EndTick, sp.StartTick)
		}
		if sp.SimStart != NoSim && sp.SimEnd != NoSim && sp.SimEnd < sp.SimStart {
			return fmt.Errorf("obs: span %d %q sim-clock runs backwards (%d → %d ns)",
				sp.ID, sp.Name, sp.SimStart, sp.SimEnd)
		}
		if sp.Parent == 0 {
			continue
		}
		parent := byID[sp.Parent]
		if parent == nil {
			return fmt.Errorf("obs: span %d %q has unknown parent %d", sp.ID, sp.Name, sp.Parent)
		}
		if parent.StartTick >= sp.StartTick {
			return fmt.Errorf("obs: span %d %q starts (tick %d) before its parent %d (tick %d)",
				sp.ID, sp.Name, sp.StartTick, parent.ID, parent.StartTick)
		}
		if parent.EndTick != 0 && parent.EndTick <= sp.EndTick {
			return fmt.Errorf("obs: span %d %q ends (tick %d) after its parent %d (tick %d)",
				sp.ID, sp.Name, sp.EndTick, parent.ID, parent.EndTick)
		}
		if sp.SimStart != NoSim && parent.SimStart != NoSim && sp.SimStart < parent.SimStart {
			return fmt.Errorf("obs: span %d %q sim-starts before its parent %d", sp.ID, sp.Name, parent.ID)
		}
	}
	return nil
}

// ValidateJSONL re-parses a WriteJSONL stream and runs the same
// well-formedness checks on it — the CI smoke step's checker. Counter
// lines are parsed (and their types verified) but carry no tree structure
// to check.
func ValidateJSONL(r io.Reader) (spanCount int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var spans []spanRecord
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var head struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal([]byte(text), &head); err != nil {
			return 0, fmt.Errorf("obs: line %d: %w", line, err)
		}
		switch head.Type {
		case "span":
			var js jsonSpan
			if err := json.Unmarshal([]byte(text), &js); err != nil {
				return 0, fmt.Errorf("obs: line %d: %w", line, err)
			}
			sp := spanRecord{
				ID: js.ID, Parent: js.Parent, Name: js.Name,
				StartTick: js.StartTick, EndTick: js.EndTick,
				SimStart: js.SimStart, SimEnd: js.SimEnd,
				Counters: js.Counters,
			}
			for _, k := range sortedKeysString(js.Attrs) {
				sp.Attrs = append(sp.Attrs, Attr{Key: k, Value: js.Attrs[k]})
			}
			spans = append(spans, sp)
		case "counter":
			var jm jsonMetric
			if err := json.Unmarshal([]byte(text), &jm); err != nil {
				return 0, fmt.Errorf("obs: line %d: %w", line, err)
			}
		case "hist":
			var jh jsonHist
			if err := json.Unmarshal([]byte(text), &jh); err != nil {
				return 0, fmt.Errorf("obs: line %d: %w", line, err)
			}
			// Buckets count samples: none is negative and their sum fits
			// an int64, so it cannot wrap around to a negative count.
			var bucketSum int64
			for k, c := range jh.Buckets {
				if c < 0 || bucketSum > math.MaxInt64-c {
					return 0, fmt.Errorf("obs: line %d: hist %q bucket %s count %d is negative or overflows the sum",
						line, jh.Name, k, c)
				}
				bucketSum += c
			}
			if bucketSum != jh.Count {
				return 0, fmt.Errorf("obs: line %d: hist %q buckets sum to %d, count is %d",
					line, jh.Name, bucketSum, jh.Count)
			}
		default:
			return 0, fmt.Errorf("obs: line %d: unknown record type %q", line, head.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return len(spans), validateSpans(spans)
}

func sortedKeysString(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// pathCost aggregates the spans sharing one name path (root/child/...):
// invocation count, simulated time and counter totals.
type pathCost struct {
	Path  string
	Depth int
	Count int
	// Sim is total simulated time across the path's spans; HasSim reports
	// whether any span was stamped by a sim clock.
	Sim      time.Duration
	HasSim   bool
	Counters map[string]int64
}

// aggregatePaths groups spans by name path in first-occurrence order.
func aggregatePaths(spans []spanRecord) []pathCost {
	pathOf := make(map[int]string, len(spans))
	depthOf := make(map[int]int, len(spans))
	idx := make(map[string]int)
	var groups []pathCost
	for i := range spans {
		sp := &spans[i]
		path, depth := sp.Name, 0
		if sp.Parent != 0 {
			path = pathOf[sp.Parent] + "/" + sp.Name
			depth = depthOf[sp.Parent] + 1
		}
		pathOf[sp.ID] = path
		depthOf[sp.ID] = depth
		gi, ok := idx[path]
		if !ok {
			gi = len(groups)
			idx[path] = gi
			groups = append(groups, pathCost{Path: path, Depth: depth, Counters: make(map[string]int64)})
		}
		g := &groups[gi]
		g.Count++
		if sp.SimStart != NoSim && sp.SimEnd != NoSim {
			g.Sim += time.Duration(sp.SimEnd - sp.SimStart)
			g.HasSim = true
		}
		for k, v := range sp.Counters {
			g.Counters[k] += v
		}
	}
	return groups
}

// FlameSummary renders a human-readable aggregation of the span tree:
// spans grouped by their name path (root/child/...), with invocation
// counts, total simulated time (where stamped) and per-path counter
// totals. Rows appear in first-occurrence order, indented by depth.
func (r *Recorder) FlameSummary() string {
	if r == nil {
		return ""
	}
	spans, _ := r.snapshot()
	groups := aggregatePaths(spans)
	var b strings.Builder
	fmt.Fprintf(&b, "flame summary: %d spans, %d distinct paths\n", len(spans), len(groups))
	for i := range groups {
		g := &groups[i]
		name := g.Path
		if i := strings.LastIndex(g.Path, "/"); i >= 0 {
			name = g.Path[i+1:]
		}
		fmt.Fprintf(&b, "%s%-*s %4d×", strings.Repeat("  ", g.Depth+1),
			36-2*g.Depth, name, g.Count)
		if g.HasSim {
			fmt.Fprintf(&b, "  sim %8.1fs", g.Sim.Seconds())
		}
		if len(g.Counters) > 0 {
			keys := sortedKeys(g.Counters)
			parts := make([]string, 0, len(keys))
			for _, k := range keys {
				parts = append(parts, fmt.Sprintf("%s=%d", k, g.Counters[k]))
			}
			fmt.Fprintf(&b, "  [%s]", strings.Join(parts, " "))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
