package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"chameleon/internal/obs/bundle"
)

// TestBundleAddressesPinned holds the content addresses of the three
// bundles that cover the execute path: planning plus a corpus sweep, the
// chaos sweep (retries, partial acks, duplicates, flaps) and the supervised
// recovery sweep. A change that means to move a counter, a plan or a
// fingerprint re-records them on purpose and says so.
func TestBundleAddressesPinned(t *testing.T) {
	for _, c := range []struct {
		args []string
		id   string
	}{
		{[]string{"-smoke", "-fig", "7", "-max-nodes", "15"}, "9d6c0557a74d15e30954b3448048515855af09f0d57045678bb3a02a69161fe6"},
		{[]string{"-chaos"}, "bea49c74b900ef2abfd1487e9527905324a296fba07f46c4fd5a18122ae9d60f"},
		{[]string{"-supervise"}, "95ae6019da7e787cfc25d49bdad7a751f3a7c23d5a14694c70d1dd9c2d2bdae4"},
	} {
		dir := filepath.Join(t.TempDir(), "bundle")
		var stdout, stderr bytes.Buffer
		if code := run(append(c.args, "-workers", "1", "-bundle", dir), &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d\n%s", c.args, code, stderr.String())
		}
		b, err := bundle.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Verify(); err != nil {
			t.Fatal(err)
		}
		if b.Manifest.ID != c.id {
			t.Errorf("%v: bundle %s, want %s", c.args, b.Manifest.ID, c.id)
		}
	}
}

// TestUnknownSelectorRunsNothing: an unknown selector is a usage error even
// beside a valid one, and the message names the valid ids.
func TestUnknownSelectorRunsNothing(t *testing.T) {
	for _, args := range [][]string{{"-fig", "5"}, {"-table", "3"}, {"-smoke", "-fig", "5"}, {}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: ran something:\n%s", args, stdout.String())
		}
		if !strings.Contains(stderr.String(), "-fig 1, -fig 6") {
			t.Errorf("%v: stderr does not name the valid experiments:\n%s", args, stderr.String())
		}
	}
}

// TestFailedArtifactWriteFailsRun: a CSV that cannot be written fails the
// run and is not reported as written.
func TestFailedArtifactWriteFailsRun(t *testing.T) {
	tmp := t.TempDir()
	notDir := filepath.Join(tmp, "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	taken := filepath.Join(tmp, "out")
	if err := os.MkdirAll(filepath.Join(taken, "chaos_sweep.csv"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, out := range []string{notDir, taken} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-chaos", "-workers", "1", "-out", out}, &stdout, &stderr); code != 1 {
			t.Errorf("-out %s: exit %d, want 1", out, code)
		}
		if strings.Contains(stdout.String(), "(wrote") {
			t.Errorf("-out %s: failed write reported as written", out)
		}
	}
}

// TestPprofPrintsBoundAddress: -pprof with port 0 reports the port the
// listener was given, not the 0 it asked for.
func TestPprofPrintsBoundAddress(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-table", "1", "-pprof", "127.0.0.1:0"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	m := regexp.MustCompile(`pprof listening on http://127\.0\.0\.1:(\d+)/debug/pprof/`).FindStringSubmatch(stdout.String())
	if m == nil {
		t.Fatalf("no pprof address printed:\n%s", stdout.String())
	}
	if m[1] == "0" {
		t.Errorf("printed port 0, not the bound port:\n%s", m[0])
	}
}

// TestPprofPortTakenFailsRun: a -pprof address that cannot be bound fails
// the run before any experiment starts.
func TestPprofPortTakenFailsRun(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-table", "1", "-pprof", ln.Addr().String()}, &stdout, &stderr); code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if strings.Contains(stdout.String(), "pprof listening") || strings.Contains(stdout.String(), "Table 1") {
		t.Errorf("run went on after the listen failed:\n%s", stdout.String())
	}
}
