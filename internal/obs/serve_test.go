package obs

import (
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
