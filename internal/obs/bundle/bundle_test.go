package bundle

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBundle(t testing.TB, dir, scenario string, seed uint64, parts map[string]string) *Manifest {
	t.Helper()
	w, err := Create(dir, scenario, seed)
	if err != nil {
		t.Fatal(err)
	}
	for name, content := range parts {
		if err := w.AddPart(name, KindTrace, func(dst io.Writer) error {
			_, err := io.WriteString(dst, content)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	m, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBundleRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "b")
	w, err := Create(dir, "smoke", 7)
	if err != nil {
		t.Fatal(err)
	}
	w.SetOption("workers", "4")
	if err := w.AddPart("trace.jsonl", KindTrace, func(dst io.Writer) error {
		_, err := io.WriteString(dst, `{"type":"span","id":1}`+"\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.AddPart("sub/plan.txt", KindPlan, func(dst io.Writer) error {
		_, err := io.WriteString(dst, "Round 1\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	m, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if m.ID == "" || m.Schema != Schema {
		t.Fatalf("bad manifest: %+v", m)
	}
	if len(m.Parts) != 2 || m.Parts[0].Name != "sub/plan.txt" || m.Parts[1].Name != "trace.jsonl" {
		t.Fatalf("parts not sorted by name: %+v", m.Parts)
	}

	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.ID != m.ID {
		t.Fatalf("reopened ID %s != sealed %s", b.Manifest.ID, m.ID)
	}
	if err := b.Verify(); err != nil {
		t.Fatal(err)
	}
	p, ok := b.Manifest.Part("trace.jsonl")
	if !ok {
		t.Fatal("trace.jsonl missing from manifest")
	}
	got, err := b.ReadPart(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"type":"span","id":1}` + "\n"; string(got) != want {
		t.Fatalf("part content %q, want %q", got, want)
	}
}

func TestContentAddressIgnoresEnvironment(t *testing.T) {
	parts := map[string]string{"trace.jsonl": "line\n", "timeline.jsonl": "record\n"}

	dirA := filepath.Join(t.TempDir(), "a")
	a := writeBundle(t, dirA, "fig7", 7, parts)

	dirB := filepath.Join(t.TempDir(), "b")
	w, err := Create(dirB, "fig7", 7)
	if err != nil {
		t.Fatal(err)
	}
	w.SetOption("workers", "32") // different environment, same content
	for name, content := range parts {
		if err := w.AddPart(name, KindTrace, func(dst io.Writer) error {
			_, err := io.WriteString(dst, content)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	b, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != b.ID {
		t.Fatalf("options changed the content address: %s vs %s", a.ID, b.ID)
	}

	// Different seed, same bytes → different address.
	dirC := filepath.Join(t.TempDir(), "c")
	c := writeBundle(t, dirC, "fig7", 8, parts)
	if c.ID == a.ID {
		t.Fatal("seed did not enter the content address")
	}

	// Different part bytes → different address.
	dirD := filepath.Join(t.TempDir(), "d")
	d := writeBundle(t, dirD, "fig7", 7, map[string]string{"trace.jsonl": "other\n", "timeline.jsonl": "record\n"})
	if d.ID == a.ID {
		t.Fatal("part content did not enter the content address")
	}
}

func TestVerifyDetectsTampering(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "b")
	writeBundle(t, dir, "smoke", 7, map[string]string{"trace.jsonl": "line\n"})
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "trace.jsonl"), []byte("tampered\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := b.Verify(); err == nil || !strings.Contains(err.Error(), "trace.jsonl") {
		t.Fatalf("Verify() = %v, want hash mismatch naming the part", err)
	}
}

func TestWriterRejectsBadParts(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "b")
	w, err := Create(dir, "smoke", 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", ManifestName, "../escape.txt", "/abs.txt", "a/../../b", ".", ".."} {
		if err := w.AddPart(name, KindTrace, func(io.Writer) error { return nil }); err == nil {
			t.Errorf("AddPart(%q) accepted an invalid name", name)
		}
	}
	ok := func(dst io.Writer) error { _, err := io.WriteString(dst, "x"); return err }
	if err := w.AddPart("p.txt", KindTrace, ok); err != nil {
		t.Fatal(err)
	}
	if err := w.AddPart("p.txt", KindTrace, ok); err == nil {
		t.Error("duplicate part name accepted")
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.AddPart("late.txt", KindTrace, ok); err == nil {
		t.Error("AddPart after Close accepted")
	}
	// A sealed directory refuses a second bundle.
	if _, err := Create(dir, "smoke", 7); err == nil {
		t.Error("Create over a sealed bundle accepted")
	}
}

func TestAddJournalPart(t *testing.T) {
	journal := `{"seq":1,"kind":"begin"}` + "\n"
	dir := filepath.Join(t.TempDir(), "b")
	w, err := Create(dir, "supervise", 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AddPart("journals/journal.jsonl", KindJournal, func(dst io.Writer) error {
		_, err := io.WriteString(dst, journal)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	m, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if p := m.Parts[0]; p.Kind != KindJournal || p.Size != int64(len(journal)) {
		t.Fatalf("journal part = %+v", p)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRejectsCorruptManifest(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "b")
	writeBundle(t, dir, "smoke", 7, map[string]string{"trace.jsonl": "line\n"})
	path := filepath.Join(dir, ManifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip the recorded seed: the stored ID no longer matches.
	tampered := strings.Replace(string(raw), `"seed": 7`, `"seed": 8`, 1)
	if tampered == string(raw) {
		t.Fatal("test setup: seed field not found")
	}
	if err := os.WriteFile(path, []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "ID") {
		t.Fatalf("Open() = %v, want ID mismatch", err)
	}
}

// sealedManifest returns m's manifest.json bytes with the ID m's parts
// content-address to, so Open gets past the ID check to whatever else is
// wrong with m.
func sealedManifest(t testing.TB, m Manifest) []byte {
	t.Helper()
	m.ID = m.ComputeID()
	raw, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestOpenRejectsDirectoryPartNames: a manifest whose ID matches its parts
// but which lists ".." (the bundle's parent directory) or "." (the bundle
// directory itself) as a part is refused.
func TestOpenRejectsDirectoryPartNames(t *testing.T) {
	for _, name := range []string{"..", "."} {
		dir := t.TempDir()
		raw := sealedManifest(t, Manifest{Schema: Schema, Scenario: "smoke", Seed: 7,
			Parts: []Part{{Name: name, Kind: KindTrace, SHA256: strings.Repeat("0", 64)}}})
		if err := os.WriteFile(filepath.Join(dir, ManifestName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if b, err := Open(dir); err == nil {
			t.Errorf("Open accepted part %q at %s", name, b.PartPath(b.Manifest.Parts[0]))
		}
	}
}

func TestManifestComputeIDOrderIndependent(t *testing.T) {
	m := Manifest{Schema: Schema, Scenario: "s", Seed: 1, Parts: []Part{
		{Name: "b", Kind: KindTrace, SHA256: "22"},
		{Name: "a", Kind: KindTimeline, SHA256: "11"},
	}}
	id1 := m.ComputeID()
	m.Parts[0], m.Parts[1] = m.Parts[1], m.Parts[0]
	if id2 := m.ComputeID(); id1 != id2 {
		t.Fatalf("part order changed the ID: %s vs %s", id1, id2)
	}
}

func ExampleCreate() {
	dir := filepath.Join(os.TempDir(), "bundle-example")
	os.RemoveAll(dir)
	w, _ := Create(dir, "smoke", 7)
	_ = w.AddPart("trace.jsonl", KindTrace, func(dst io.Writer) error {
		_, err := io.WriteString(dst, `{"type":"span","id":1}`+"\n")
		return err
	})
	m, _ := w.Close()
	fmt.Println(len(m.Parts), "part(s), scenario", m.Scenario)
	// Output: 1 part(s), scenario smoke
}
