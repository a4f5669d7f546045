package obs

import (
	"encoding/json"
	"sync"
)

// Stream is a bounded, subscriber-fanout live event feed: producers
// publish JSON records (span boundaries from an attached Recorder,
// violations from the transient-state monitor), a fixed-capacity ring
// buffer keeps the most recent records as backlog for late subscribers,
// and every subscriber gets its own bounded channel. Publishing never
// blocks: a subscriber that cannot keep up loses records, and every such
// loss increments an explicit drop counter — the stream is best-effort by
// design, the recorder remains the complete record.
type Stream struct {
	mu      sync.Mutex
	cap     int
	ring    [][]byte // last cap published lines, oldest first
	seq     uint64   // total records ever published
	dropped int64    // records lost to slow subscribers
	subs    map[*StreamSub]struct{}

	// dropRec, when set, mirrors every drop into CtrStreamDropped on that
	// recorder (countDropsInto). The Add happens after the stream lock is
	// released: the recorder may itself publish to this stream, so the two
	// locks are never held together in either order.
	dropRec *Recorder
}

// DefaultStreamCapacity is the backlog ring size when NewStream gets a
// non-positive capacity.
const DefaultStreamCapacity = 1024

// NewStream returns a stream whose backlog ring holds the last capacity
// records (DefaultStreamCapacity if capacity ≤ 0).
func NewStream(capacity int) *Stream {
	if capacity <= 0 {
		capacity = DefaultStreamCapacity
	}
	return &Stream{cap: capacity, subs: make(map[*StreamSub]struct{})}
}

// StreamRecord is the wire form of the records the obs layer itself
// publishes (span boundaries); other producers publish their own types.
type StreamRecord struct {
	Type  string `json:"type"`
	Name  string `json:"name,omitempty"`
	Span  int    `json:"span,omitempty"`
	Tick  uint64 `json:"tick,omitempty"`
	SimNS int64  `json:"sim_ns,omitempty"`
}

// Publish marshals v to one JSON line and broadcasts it: appended to the
// backlog ring (evicting the oldest record when full) and offered to every
// subscriber without blocking. Records a subscriber's buffer cannot take
// are counted in Dropped. Unmarshalable values are ignored. Nil-safe.
func (s *Stream) Publish(v any) {
	if s == nil {
		return
	}
	line, err := json.Marshal(v)
	if err != nil {
		return
	}
	s.mu.Lock()
	s.seq++
	if len(s.ring) == s.cap {
		copy(s.ring, s.ring[1:])
		s.ring[len(s.ring)-1] = line
	} else {
		s.ring = append(s.ring, line)
	}
	var droppedNow int64
	for sub := range s.subs {
		select {
		case sub.ch <- line:
		default:
			s.dropped++
			droppedNow++
		}
	}
	rec := s.dropRec
	s.mu.Unlock()
	if droppedNow > 0 {
		rec.Add(CtrStreamDropped, droppedNow)
	}
}

// countDropsInto mirrors every subsequent subscriber drop into rec's
// CtrStreamDropped counter, making slow-subscriber loss visible on
// /metrics and in the trace's counter records. Recorder.SetStream is its caller; a nil
// rec detaches. Nil-safe.
func (s *Stream) countDropsInto(rec *Recorder) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.dropRec = rec
	s.mu.Unlock()
}

// Dropped returns the number of records lost to slow subscribers so far.
func (s *Stream) Dropped() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Seq returns the total number of records ever published.
func (s *Stream) Seq() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// StreamSub is one subscription: the backlog at subscription time plus a
// live channel. Close it when done or the stream keeps offering (and
// dropping) records against its buffer forever.
type StreamSub struct {
	s  *Stream
	ch chan []byte
}

// Subscribe snapshots the current backlog and registers a live channel
// buffering up to buf records (a non-positive buf gets the ring capacity).
// The returned backlog and all channel payloads are immutable lines
// without trailing newlines.
func (s *Stream) Subscribe(buf int) (backlog [][]byte, sub *StreamSub) {
	if s == nil {
		return nil, nil
	}
	if buf <= 0 {
		buf = s.cap
	}
	sub = &StreamSub{s: s, ch: make(chan []byte, buf)}
	s.mu.Lock()
	backlog = make([][]byte, len(s.ring))
	copy(backlog, s.ring)
	s.subs[sub] = struct{}{}
	s.mu.Unlock()
	return backlog, sub
}

// C is the live record channel.
func (u *StreamSub) C() <-chan []byte {
	if u == nil {
		return nil
	}
	return u.ch
}

// Close unregisters the subscription. Safe to call more than once; the
// channel is not closed (records already buffered stay readable).
func (u *StreamSub) Close() {
	if u == nil {
		return
	}
	u.s.mu.Lock()
	delete(u.s.subs, u)
	u.s.mu.Unlock()
}
