package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestHealthzPlainFastPath: the default /healthz answer stays the literal
// "ok" probes expect.
func TestHealthzPlainFastPath(t *testing.T) {
	h := Handler(New(), ServeOptions{})
	req := httptest.NewRequest("GET", "/healthz", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK || w.Body.String() != "ok\n" {
		t.Fatalf("/healthz = %d %q, want 200 \"ok\\n\"", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
}

// TestHealthzFullJSON: ?full=1 (or Accept: application/json) upgrades the
// probe to a JSON report with uptime, schema version and build info.
func TestHealthzFullJSON(t *testing.T) {
	h := Handler(New(), ServeOptions{})
	for name, req := range map[string]*http.Request{
		"query":  httptest.NewRequest("GET", "/healthz?full=1", nil),
		"accept": httptest.NewRequest("GET", "/healthz", nil),
	} {
		if name == "accept" {
			req.Header.Set("Accept", "application/json")
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status = %d", name, w.Code)
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
			t.Errorf("%s: Content-Type = %q", name, ct)
		}
		var rep struct {
			Status  string    `json:"status"`
			UptimeS float64   `json:"uptime_s"`
			Schema  string    `json:"schema"`
			Build   BuildInfo `json:"build"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
			t.Fatalf("%s: body %q: %v", name, w.Body.String(), err)
		}
		if rep.Status != "ok" || rep.Schema != DumpSchema {
			t.Errorf("%s: report = %+v", name, rep)
		}
		if rep.UptimeS < 0 {
			t.Errorf("%s: negative uptime %f", name, rep.UptimeS)
		}
		if rep.Build.GoVersion == "" || rep.Build.GOOS == "" {
			t.Errorf("%s: build info empty: %+v", name, rep.Build)
		}
	}
}
