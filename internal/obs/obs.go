// Package obs is the pipeline's zero-dependency observability substrate:
// hierarchical spans, monotonic counters and histograms, recorded
// against a deterministic logical clock (ticks) plus, where one exists, the
// simulated clock — never the wall clock. A trace recorded from the same
// seeds is therefore byte-identical run to run and at any sweep worker
// count, which is the contract the evaluation's worker-invariance tests
// enforce.
//
// Everything is nil-safe: a nil *Recorder (and the nil *Span it hands out)
// turns every method into an immediate return, so uninstrumented runs pay a
// single pointer test on the hot paths and nothing else.
//
// The span taxonomy and counter inventory are documented in DESIGN.md §9.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// NoSim marks a span timestamp taken while no simulated clock was
// installed (planning-stage spans: the sim clock only advances during
// execution).
const NoSim int64 = -1

// Attr is one key=value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, value int64) Attr {
	return Attr{Key: key, Value: fmt.Sprintf("%d", value)}
}

// spanRecord is the stored form of one span.
type spanRecord struct {
	ID        int // 1-based; 0 is "no span"
	Parent    int // 0 for roots
	Name      string
	Attrs     []Attr
	StartTick uint64
	EndTick   uint64 // 0 while open
	SimStart  int64  // nanoseconds of simulated time, NoSim without a clock
	SimEnd    int64
	Counters  map[string]int64
}

// Span is a handle on an open (or ended) span. The zero of *Span (nil) is a
// valid no-op span; every method on it returns immediately.
type Span struct {
	rec *Recorder
	id  int
}

// Recorder accumulates spans, counters and histograms. It is safe for
// concurrent use; parallel sweeps nevertheless give every run its own
// Recorder and merge them in index order (Adopt), because interleaving
// updates from concurrent runs into one recorder would order ticks by
// scheduling rather than by work index.
type Recorder struct {
	mu       sync.Mutex
	clock    func() time.Duration
	tick     uint64
	spans    []spanRecord
	counters map[string]int64
	hists    map[string]*histRecord
}

// New returns an empty Recorder with no clock: spans are stamped with
// logical ticks only until SetClock installs a simulated-time source.
func New() *Recorder {
	return &Recorder{counters: make(map[string]int64)}
}

// Fork returns a fresh empty Recorder for one unit of a parallel fan-out,
// which the caller folds back with Adopt. A nil receiver forks to nil, so
// an untraced fan-out stays untraced.
func (r *Recorder) Fork() *Recorder {
	if r == nil {
		return nil
	}
	return New()
}

// SetClock installs (or, with nil, removes) the simulated-time source used
// to stamp spans. The executor installs the network's sim clock for the
// duration of an execution; planning stages run without one. Never install
// a wall clock: it would break the byte-identical trace contract.
func (r *Recorder) SetClock(clock func() time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.clock = clock
	r.mu.Unlock()
}

// now returns the sim timestamp under the lock.
func (r *Recorder) now() int64 {
	if r.clock == nil {
		return NoSim
	}
	return int64(r.clock())
}

// StartSpan opens a span under parent (nil parent: a root span). On a nil
// Recorder it returns nil, which is itself a valid no-op span.
func (r *Recorder) StartSpan(parent *Span, name string, attrs ...Attr) *Span {
	if r == nil {
		return nil
	}
	parentID := 0
	if parent != nil && parent.rec == r {
		parentID = parent.id
	}
	r.mu.Lock()
	r.tick++
	sp := spanRecord{
		ID:        len(r.spans) + 1,
		Parent:    parentID,
		Name:      name,
		Attrs:     attrs,
		StartTick: r.tick,
		SimStart:  r.now(),
		SimEnd:    NoSim,
	}
	r.spans = append(r.spans, sp)
	id := len(r.spans)
	r.mu.Unlock()
	return &Span{rec: r, id: id}
}

// End closes the span. Ending a span twice keeps the first end; ending nil
// is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	r := s.rec
	r.mu.Lock()
	rec := &r.spans[s.id-1]
	if rec.EndTick == 0 {
		r.tick++
		rec.EndTick = r.tick
		rec.SimEnd = r.now()
	}
	r.mu.Unlock()
}

// SetAttr sets (or overwrites) an attribute on the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	r := s.rec
	r.mu.Lock()
	rec := &r.spans[s.id-1]
	for i := range rec.Attrs {
		if rec.Attrs[i].Key == key {
			rec.Attrs[i].Value = value
			r.mu.Unlock()
			return
		}
	}
	rec.Attrs = append(rec.Attrs, Attr{Key: key, Value: value})
	r.mu.Unlock()
}

// Add increments a counter on the span and on the recorder's global totals.
func (s *Span) Add(name string, delta int64) {
	if s == nil || delta == 0 {
		return
	}
	r := s.rec
	r.mu.Lock()
	rec := &r.spans[s.id-1]
	if rec.Counters == nil {
		rec.Counters = make(map[string]int64)
	}
	rec.Counters[name] += delta
	r.counters[name] += delta
	r.mu.Unlock()
}

// Add increments a recorder-level counter.
func (r *Recorder) Add(name string, delta int64) {
	if r == nil || delta == 0 {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Counter returns the current value of a counter (0 if never incremented
// or the recorder is nil).
func (r *Recorder) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// Counters returns a copy of the counter totals.
func (r *Recorder) Counters() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for k, v := range r.counters {
		out[k] = v
	}
	return out
}

// NumSpans returns the number of recorded spans.
func (r *Recorder) NumSpans() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// SpanNames returns the recorded span names in ID order.
func (r *Recorder) SpanNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, len(r.spans))
	for i := range r.spans {
		names[i] = r.spans[i].Name
	}
	return names
}

// Adopt merges child — a Recorder that observed one complete unit of work,
// typically a parallel sweep run — into r under a fresh wrapper span named
// name. Child span IDs and ticks are rebased past r's, child counters fold
// into both the wrapper span and r's totals, and child histograms add into
// r's. Adopting the per-run recorders in work-index order after a parallel
// sweep therefore yields the same bytes as running sequentially — the
// worker-invariance contract. The child must be quiescent (no open spans,
// no concurrent use); Adopt validates nothing and simply copies.
func (r *Recorder) Adopt(name string, child *Recorder) {
	if r == nil {
		return
	}
	wrapper := r.StartSpan(nil, name)
	if child != nil {
		child.mu.Lock()
		spans := make([]spanRecord, len(child.spans))
		copy(spans, child.spans)
		counters := make(map[string]int64, len(child.counters))
		for k, v := range child.counters {
			counters[k] = v
		}
		hists := make(map[string]*histRecord, len(child.hists))
		for name, h := range child.hists {
			cp := &histRecord{buckets: make(map[int]int64, len(h.buckets)), sum: h.sum, count: h.count}
			for i, c := range h.buckets {
				cp.buckets[i] = c
			}
			hists[name] = cp
		}
		childTicks := child.tick
		child.mu.Unlock()

		r.mu.Lock()
		idBase := wrapper.id // child ID i becomes idBase+i
		tickBase := r.tick
		for _, sp := range spans {
			sp.ID += idBase
			if sp.Parent == 0 {
				sp.Parent = wrapper.id
			} else {
				sp.Parent += idBase
			}
			sp.StartTick += tickBase
			if sp.EndTick != 0 {
				sp.EndTick += tickBase
			}
			if sp.Counters != nil {
				cp := make(map[string]int64, len(sp.Counters))
				for k, v := range sp.Counters {
					cp[k] = v
				}
				sp.Counters = cp
			}
			attrs := make([]Attr, len(sp.Attrs))
			copy(attrs, sp.Attrs)
			sp.Attrs = attrs
			r.spans = append(r.spans, sp)
		}
		r.tick += childTicks
		w := &r.spans[wrapper.id-1]
		if w.Counters == nil && len(counters) > 0 {
			w.Counters = make(map[string]int64, len(counters))
		}
		for k, v := range counters {
			w.Counters[k] += v
			r.counters[k] += v
		}
		r.adoptHistsLocked(hists)
		r.mu.Unlock()
	}
	wrapper.End()
}

// snapshot copies the recorder's spans and counter totals for export and
// validation.
func (r *Recorder) snapshot() ([]spanRecord, map[string]int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	spans := make([]spanRecord, len(r.spans))
	copy(spans, r.spans)
	counters := make(map[string]int64, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	return spans, counters
}

// sortedKeys returns m's keys sorted.
func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
