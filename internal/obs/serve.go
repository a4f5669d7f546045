package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// ServeOptions configure the live HTTP surface.
type ServeOptions struct {
	// Prom tunes the /metrics exposition.
	Prom PromOptions
	// Stream, when set, is served at /events as a live JSONL feed; without
	// one /events responds 404.
	Stream *Stream
}

// Handler returns a stdlib-only HTTP handler exposing a live view of the
// recorder for long-running sweeps and benchmark runs:
//
//   - /metrics  — the recorder's counters and histograms in
//     Prometheus text exposition format (WritePrometheus with opts.Prom)
//   - /healthz  — liveness probe, always "ok"
//   - /events   — with opts.Stream set, the stream's backlog followed by
//     records as they are published, as chunked JSONL (one JSON object per
//     line); without one it responds 404
//   - /debug/pprof/... — net/http/pprof (CPU, heap, goroutine, trace, ...)
//
// /events?follow=0 sends the backlog and closes (what CI smoke curls use).
// The first record is always a hello carrying the backlog length, the
// publish sequence number and the stream's drop counter.
//
// The recorder may keep recording while being served: /metrics snapshots
// under the recorder's lock. A nil recorder serves empty metrics (the
// probe and profiler still work), so callers can mount the handler
// unconditionally.
func Handler(rec *Recorder, opts ServeOptions) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		rec.WritePrometheus(w, opts.Prom)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	if opts.Stream != nil {
		mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
			serveEvents(w, r, opts.Stream)
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func serveEvents(w http.ResponseWriter, r *http.Request, s *Stream) {
	follow := r.URL.Query().Get("follow") != "0"
	w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	write := func(line []byte) bool {
		if _, err := fmt.Fprintf(w, "%s\n", line); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	backlog, sub := s.Subscribe(0)
	defer sub.Close()
	hello := fmt.Sprintf(`{"type":"hello","backlog":%d,"seq":%d,"dropped":%d}`,
		len(backlog), s.Seq(), s.Dropped())
	if !write([]byte(hello)) {
		return
	}
	for _, line := range backlog {
		if !write(line) {
			return
		}
	}
	if !follow {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case line := <-sub.C():
			if !write(line) {
				return
			}
		}
	}
}

// Serve listens on addr — which may name an ephemeral port, ":0" — then
// serves Handler(rec, opts) from a new goroutine. It returns the server
// (callers Close it on shutdown, or let process exit tear it down) and the
// actually bound address, e.g. "127.0.0.1:43817", so callers on ephemeral
// ports can print or curl a usable URL. Errors after startup are reported
// through errf when non-nil.
func Serve(addr string, rec *Recorder, opts ServeOptions, errf func(error)) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Addr: ln.Addr().String(), Handler: Handler(rec, opts)}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed && errf != nil {
			errf(err)
		}
	}()
	return srv, ln.Addr().String(), nil
}
