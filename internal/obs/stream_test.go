package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestStreamBacklogAndEviction(t *testing.T) {
	s := NewStream(3)
	for i := 0; i < 5; i++ {
		s.Publish(StreamRecord{Type: "t", Name: fmt.Sprintf("r%d", i)})
	}
	backlog, sub := s.Subscribe(0)
	defer sub.Close()
	if len(backlog) != 3 {
		t.Fatalf("backlog = %d records, want ring capacity 3", len(backlog))
	}
	// Oldest evicted: the ring holds r2, r3, r4 in publish order.
	for i, want := range []string{"r2", "r3", "r4"} {
		if !strings.Contains(string(backlog[i]), want) {
			t.Errorf("backlog[%d] = %s, want name %s", i, backlog[i], want)
		}
	}
	if s.Seq() != 5 {
		t.Errorf("seq = %d, want 5", s.Seq())
	}

	s.Publish(StreamRecord{Type: "t", Name: "live"})
	select {
	case line := <-sub.C():
		if !strings.Contains(string(line), "live") {
			t.Errorf("live record = %s", line)
		}
	default:
		t.Error("subscriber did not receive the live record")
	}
}

func TestStreamDropCounter(t *testing.T) {
	s := NewStream(8)
	_, sub := s.Subscribe(1) // room for exactly one undrained record
	defer sub.Close()
	s.Publish(StreamRecord{Type: "a"})
	s.Publish(StreamRecord{Type: "b"})
	s.Publish(StreamRecord{Type: "c"})
	if got := s.Dropped(); got != 2 {
		t.Errorf("dropped = %d, want 2 (buffer of 1, three publishes)", got)
	}
	// The backlog still has everything: drops are per-subscriber delivery
	// losses, not data loss.
	backlog, sub2 := s.Subscribe(0)
	defer sub2.Close()
	if len(backlog) != 3 {
		t.Errorf("backlog = %d, want 3", len(backlog))
	}
}

// TestStreamDropsMirroredToRecorder: a stream attached via SetStream
// mirrors slow-subscriber loss into CtrStreamDropped, so /metrics and
// metrics dumps show it without polling StreamSub.
func TestStreamDropsMirroredToRecorder(t *testing.T) {
	s := NewStream(8)
	rec := New()
	rec.SetStream(s)
	_, sub := s.Subscribe(1)
	defer sub.Close()
	for i := 0; i < 4; i++ {
		s.Publish(StreamRecord{Type: "t", Name: fmt.Sprintf("r%d", i)})
	}
	if got, want := rec.Counter(CtrStreamDropped), s.Dropped(); got != want || want != 3 {
		t.Errorf("CtrStreamDropped = %d, stream dropped = %d, want both 3", got, want)
	}
	// Detaching the stream detaches the drop accounting.
	rec.SetStream(nil)
	s.Publish(StreamRecord{Type: "t", Name: "after"})
	if got := rec.Counter(CtrStreamDropped); got != 3 {
		t.Errorf("detached stream still counted: %d", got)
	}
}

func TestStreamNilSafe(t *testing.T) {
	var s *Stream
	s.Publish(StreamRecord{Type: "x"}) // must not panic
	if s.Dropped() != 0 || s.Seq() != 0 {
		t.Error("nil stream reports activity")
	}
	backlog, sub := s.Subscribe(4)
	if backlog != nil || sub != nil {
		t.Error("nil stream produced a subscription")
	}
	sub.Close() // nil sub must not panic
}

func TestRecorderPublishesSpans(t *testing.T) {
	s := NewStream(16)
	r := New()
	r.SetStream(s)
	sp := r.StartSpan(nil, "phase")
	sp.End()
	backlog, sub := s.Subscribe(0)
	defer sub.Close()
	if len(backlog) != 2 {
		t.Fatalf("backlog = %d records, want span_start + span_end", len(backlog))
	}
	var start, end StreamRecord
	if err := json.Unmarshal(backlog[0], &start); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(backlog[1], &end); err != nil {
		t.Fatal(err)
	}
	if start.Type != "span_start" || start.Name != "phase" {
		t.Errorf("first record = %+v, want span_start phase", start)
	}
	if end.Type != "span_end" || end.Name != "phase" {
		t.Errorf("second record = %+v, want span_end phase", end)
	}
	if r.EventStream() != s {
		t.Error("EventStream does not return the attached stream")
	}
}

func TestEventsEndpointBacklogOnly(t *testing.T) {
	s := NewStream(8)
	s.Publish(StreamRecord{Type: "violation", Name: "reach"})
	h := Handler(New(), ServeOptions{Stream: s})

	req := httptest.NewRequest("GET", "/events?follow=0", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	sc := bufio.NewScanner(w.Body)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("malformed JSONL line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want hello + 1 backlog record", len(lines))
	}
	if lines[0]["type"] != "hello" || lines[0]["backlog"] != float64(1) {
		t.Errorf("hello = %v", lines[0])
	}
	if lines[1]["type"] != "violation" {
		t.Errorf("backlog record = %v", lines[1])
	}
}

func TestEventsEndpointSSEFraming(t *testing.T) {
	s := NewStream(8)
	s.Publish(StreamRecord{Type: "x"})
	h := Handler(New(), ServeOptions{Stream: s})
	req := httptest.NewRequest("GET", "/events?follow=0&sse=1", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if ct := w.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	body := w.Body.String()
	if !strings.HasPrefix(body, `data: {"type":"hello"`) {
		t.Errorf("SSE body does not start with a data: hello frame:\n%s", body)
	}
	if !strings.Contains(body, "\n\n") {
		t.Errorf("SSE frames not blank-line separated:\n%s", body)
	}
}

func TestEventsEndpointAbsentWithoutStream(t *testing.T) {
	h := Handler(New(), ServeOptions{})
	req := httptest.NewRequest("GET", "/events", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusNotFound {
		t.Errorf("/events without a stream: status = %d, want 404", w.Code)
	}
}

// TestServeEphemeralPort: Serve(":0") binds an ephemeral port and reports
// the actual address; /metrics and /events answer on it.
func TestServeEphemeralPort(t *testing.T) {
	s := NewStream(8)
	rec := New()
	rec.SetStream(s)
	rec.Add("ctr", 1)
	s.Publish(StreamRecord{Type: "violation", Name: "reach"})

	srv, addr, err := Serve("127.0.0.1:0", rec, ServeOptions{Stream: s}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if strings.HasSuffix(addr, ":0") {
		t.Fatalf("bound address %q still names port 0", addr)
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text() + "\n")
	}
	if !strings.Contains(sb.String(), "chameleon_ctr_total 1") {
		t.Errorf("/metrics on %s lacks the counter:\n%s", addr, sb.String())
	}

	resp2, err := http.Get("http://" + addr + "/events?follow=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	sc2 := bufio.NewScanner(resp2.Body)
	n := 0
	for sc2.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc2.Bytes(), &m); err != nil {
			t.Fatalf("malformed /events line %q: %v", sc2.Text(), err)
		}
		n++
	}
	if n != 2 {
		t.Errorf("/events returned %d lines, want hello + 1 backlog record", n)
	}
}
