package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one benchmark-side measurement around a call into a layer's public
// function. Name is "layer.what"; Op ties the spans of one op together; Parent
// is the index of the enclosing span, -1 for a root.
type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Op      int    `json:"op"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

// tracer keeps spans in memory; a nil *tracer records nothing, so untraced
// passes run the same code without the bookkeeping.
type tracer struct {
	base  time.Time
	spans []span
	stack []int
	// op is the number of the op in progress, -1 between ops; ops counts
	// the ops begun.
	op, ops int
}

func newTracer() *tracer { return &tracer{base: time.Now(), op: -1} }

func noop() {}

// begin opens a span under the innermost open one and returns the function
// that closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return noop
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	layer, _, _ := strings.Cut(name, ".")
	idx := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Layer: layer, Op: t.op, Parent: parent,
		StartNS: time.Since(t.base).Nanoseconds()})
	t.stack = append(t.stack, idx)
	return func() {
		t.spans[idx].EndNS = time.Since(t.base).Nanoseconds()
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// beginOp opens the root span of the next op and returns the op's number;
// spans opened until it closes carry that number.
func (t *tracer) beginOp() (int, func()) {
	if t == nil {
		return -1, noop
	}
	t.ops++
	id := t.ops - 1
	t.op = id
	end := t.begin("bench.op")
	return id, func() {
		end()
		t.op = -1
	}
}

// selfNS returns each span's self time: its duration minus the part its
// direct children cover. Children nest and never overlap (one goroutine), so
// the self times of a tree sum to its root's duration.
func (t *tracer) selfNS() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.EndNS - s.StartNS
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNS - s.StartNS
		}
	}
	return self
}

// layerRow is one row of the per-layer self-time table.
type layerRow struct {
	Layer  string  `json:"layer"`
	SelfMS float64 `json:"self_ms"`
	Share  float64 `json:"share"`
	Spans  int     `json:"spans"`
}

// layerTable sums self time per layer; the rows add up to the duration of the
// root spans, i.e. the traced wall time.
func (t *tracer) layerTable() []layerRow {
	self := t.selfNS()
	byLayer := map[string]*layerRow{}
	var total float64
	for i, s := range t.spans {
		r := byLayer[s.Layer]
		if r == nil {
			r = &layerRow{Layer: s.Layer}
			byLayer[s.Layer] = r
		}
		r.SelfMS += float64(self[i]) / 1e6
		r.Spans++
		total += float64(self[i]) / 1e6
	}
	rows := make([]layerRow, 0, len(byLayer))
	for _, r := range byLayer {
		if total > 0 {
			r.Share = r.SelfMS / total
		}
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfMS != rows[j].SelfMS {
			return rows[i].SelfMS > rows[j].SelfMS
		}
		return rows[i].Layer < rows[j].Layer
	})
	return rows
}

// perOp sums self time per op and span name: perOp()[op]["scheduler.schedule"]
// is the milliseconds op spent in ScheduleCtx itself.
func (t *tracer) perOp() map[int]map[string]float64 {
	self := t.selfNS()
	out := map[int]map[string]float64{}
	for i, s := range t.spans {
		if s.Op < 0 {
			continue
		}
		m := out[s.Op]
		if m == nil {
			m = map[string]float64{}
			out[s.Op] = m
		}
		m[s.Name] += float64(self[i]) / 1e6
	}
	return out
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
