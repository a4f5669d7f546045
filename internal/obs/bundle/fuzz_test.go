package bundle

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzBundleOpen: Open, which obsdiff trusts with hostile bundle
// directories, never panics on arbitrary manifest bytes, and every part of a
// manifest it accepts lies strictly inside the bundle directory. Each input
// is opened as written and, when it decodes as a Manifest, once more with
// the ID its parts content-address to: a random mutation would otherwise
// stop at the ID check and never reach the part-name checks. Seeds: a real
// sealed manifest, the names ".." and ".", a duplicate part, a wrong schema
// and a mismatched ID.
func FuzzBundleOpen(f *testing.F) {
	dir := filepath.Join(f.TempDir(), "b")
	writeBundle(f, dir, "smoke", 7, map[string]string{"trace.jsonl": "{}\n", "plans/p.txt": "Round 1\n"})
	sealed, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sealed)
	f.Add([]byte(strings.Replace(string(sealed), `"id": "`, `"id": "0`, 1)))
	part := func(name string) Part { return Part{Name: name, Kind: KindTrace, SHA256: strings.Repeat("0", 64)} }
	for _, m := range []Manifest{
		{Schema: Schema, Parts: []Part{part("..")}},
		{Schema: Schema, Parts: []Part{part(".")}},
		{Schema: Schema, Parts: []Part{part("a"), part("a")}},
		{Schema: "chameleon/bundle/v0", Parts: []Part{part("a")}},
	} {
		f.Add(sealedManifest(f, m))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		open := func(raw []byte) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, ManifestName), raw, 0o644); err != nil {
				t.Fatal(err)
			}
			b, err := Open(dir)
			if err != nil {
				return
			}
			for _, p := range b.Manifest.Parts {
				rel, err := filepath.Rel(dir, b.PartPath(p))
				if err != nil || rel == "." || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
					t.Fatalf("accepted part %q resolves to %s, not strictly inside %s", p.Name, b.PartPath(p), dir)
				}
			}
		}
		open(raw)
		var m Manifest
		if json.Unmarshal(raw, &m) == nil {
			open(sealedManifest(t, m))
		}
	})
}
