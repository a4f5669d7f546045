// Package bundle turns one harness run into a durable, content-addressed,
// diffable artifact: a directory of canonical parts (trace JSONL with its
// counter totals, violation timelines, compiled plans, chaos fingerprints,
// execution journals) plus a manifest.json recording the schema version,
// the run's scenario key and seeds, the producing binary's build info, and
// the SHA-256 of every part.
//
// The bundle ID is the content address: the SHA-256 of the schema line,
// the scenario key, the seed, and the sorted (name, kind, sha256) part
// triples. Environment metadata — build info, worker counts, flag values —
// is recorded in the manifest but deliberately excluded from the ID, so
// two runs of the same seeds compare equal regardless of parallelism or
// toolchain. "Byte-identical at any parallelism" therefore collapses to
// "equal bundle IDs", and the structural differ (internal/obs/diff) only
// has to explain runs whose IDs disagree.
//
// Everything a part contains must be a deterministic function of the run:
// simulated time and logical ticks, never wall clocks or machine cost
// measurements. The format is documented in DESIGN.md §16.
package bundle

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"chameleon/internal/obs"
)

// Schema identifies the bundle manifest format.
const Schema = "chameleon/bundle/v1"

// ManifestName is the manifest's file name inside the bundle directory.
const ManifestName = "manifest.json"

// Part kinds. The differ dispatches its structural comparison on these.
const (
	KindTrace    = "trace"    // obs span/counter JSONL (obs.WriteJSONL)
	KindTimeline = "timeline" // monitor violation timelines JSONL (monitor.WriteJSONL)
	KindPlan     = "plan"     // rendered reconfiguration plan (plan.Plan.String)
	KindChaos    = "chaos"    // chaos / recovery sweep fingerprint table
	KindJournal  = "journal"  // supervisor execution journal JSONL
)

// Part is one content-addressed member of a bundle.
type Part struct {
	Name   string `json:"name"` // path relative to the bundle directory
	Kind   string `json:"kind"`
	Size   int64  `json:"size"`
	SHA256 string `json:"sha256"` // lowercase hex
}

// Manifest is the bundle's self-description, stored as manifest.json.
type Manifest struct {
	Schema   string `json:"schema"`
	ID       string `json:"id"` // content address, see ComputeID
	Scenario string `json:"scenario"`
	Seed     uint64 `json:"seed"`
	// Options records environment metadata (worker counts, flag values).
	// Excluded from the ID: a run at -workers 1 and one at -workers 32
	// must content-address identically.
	Options map[string]string `json:"options,omitempty"`
	// Build identifies the producing binary. Excluded from the ID.
	Build obs.BuildInfo `json:"build"`
	// Parts is sorted by name.
	Parts []Part `json:"parts"`
}

// ComputeID derives the content address: SHA-256 over the schema,
// scenario, seed and the sorted part triples. Options and Build are
// deliberately left out (see the package comment).
func (m *Manifest) ComputeID() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%s\n%d\n", m.Schema, m.Scenario, m.Seed)
	parts := make([]Part, len(m.Parts))
	copy(parts, m.Parts)
	sort.Slice(parts, func(i, j int) bool { return parts[i].Name < parts[j].Name })
	for _, p := range parts {
		fmt.Fprintf(h, "%s %s %s\n", p.Name, p.Kind, p.SHA256)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Part returns the named part and whether it exists.
func (m *Manifest) Part(name string) (Part, bool) {
	for _, p := range m.Parts {
		if p.Name == name {
			return p, true
		}
	}
	return Part{}, false
}

// A Writer accumulates parts into a bundle directory and seals them with a
// manifest on Close. Part writes are hashed as they stream, so even
// multi-gigabyte traces are bundled in one pass.
type Writer struct {
	dir    string
	m      Manifest
	closed bool
}

// Create starts a bundle in dir (created if missing; an existing manifest
// there is an error — bundles are immutable once sealed).
func Create(dir, scenario string, seed uint64) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); err == nil {
		return nil, fmt.Errorf("bundle: %s already contains a sealed bundle", dir)
	}
	return &Writer{dir: dir, m: Manifest{
		Schema:   Schema,
		Scenario: scenario,
		Seed:     seed,
		Build:    obs.Build(),
	}}, nil
}

// SetOption records one environment-metadata key (never part of the ID).
func (w *Writer) SetOption(key, value string) {
	if w.m.Options == nil {
		w.m.Options = make(map[string]string)
	}
	w.m.Options[key] = value
}

// validName rejects part names that would escape the bundle directory or
// name the directory itself ("." and "..").
func validName(name string) error {
	if name == "" || name == ManifestName {
		return fmt.Errorf("bundle: invalid part name %q", name)
	}
	clean := filepath.ToSlash(filepath.Clean(name))
	if clean != name || clean == "." || clean == ".." || strings.HasPrefix(clean, "../") || filepath.IsAbs(name) {
		return fmt.Errorf("bundle: part name %q is not a clean relative path", name)
	}
	return nil
}

// AddPart streams one part into the bundle: write receives a writer whose
// bytes land in dir/name and in the part's SHA-256 simultaneously.
func (w *Writer) AddPart(name, kind string, write func(io.Writer) error) error {
	if w.closed {
		return fmt.Errorf("bundle: writer already closed")
	}
	if err := validName(name); err != nil {
		return err
	}
	if _, dup := w.m.Part(name); dup {
		return fmt.Errorf("bundle: duplicate part %q", name)
	}
	path := filepath.Join(w.dir, filepath.FromSlash(name))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	h := sha256.New()
	bw := bufio.NewWriter(io.MultiWriter(f, h))
	cw := &countingWriter{w: bw}
	if err := write(cw); err != nil {
		f.Close()
		return fmt.Errorf("bundle: writing part %q: %w", name, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	w.m.Parts = append(w.m.Parts, Part{
		Name: name, Kind: kind, Size: cw.n,
		SHA256: hex.EncodeToString(h.Sum(nil)),
	})
	return nil
}

// Close sorts the parts, computes the content address, and writes the
// manifest. The returned manifest is the sealed bundle's.
func (w *Writer) Close() (*Manifest, error) {
	if w.closed {
		return nil, fmt.Errorf("bundle: writer already closed")
	}
	w.closed = true
	sort.Slice(w.m.Parts, func(i, j int) bool { return w.m.Parts[i].Name < w.m.Parts[j].Name })
	w.m.ID = w.m.ComputeID()
	f, err := os.Create(filepath.Join(w.dir, ManifestName))
	if err != nil {
		return nil, err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&w.m); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return &w.m, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// A Bundle is a sealed bundle opened for reading.
type Bundle struct {
	Dir      string
	Manifest Manifest
}

// Open reads and sanity-checks a bundle's manifest (schema, ID
// consistency, part-name validity). It does not hash the parts; Verify
// does.
func Open(dir string) (*Bundle, error) {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("bundle: parsing %s: %w", filepath.Join(dir, ManifestName), err)
	}
	if m.Schema != Schema {
		return nil, fmt.Errorf("bundle: %s has schema %q, want %q", dir, m.Schema, Schema)
	}
	seen := make(map[string]bool, len(m.Parts))
	for _, p := range m.Parts {
		if err := validName(p.Name); err != nil {
			return nil, err
		}
		if seen[p.Name] {
			return nil, fmt.Errorf("bundle: %s manifest lists part %q twice", dir, p.Name)
		}
		seen[p.Name] = true
	}
	if got := m.ComputeID(); got != m.ID {
		return nil, fmt.Errorf("bundle: %s manifest ID %s does not match its parts (recomputed %s)", dir, m.ID, got)
	}
	return &Bundle{Dir: dir, Manifest: m}, nil
}

// PartPath returns the on-disk path of a part.
func (b *Bundle) PartPath(p Part) string {
	return filepath.Join(b.Dir, filepath.FromSlash(p.Name))
}

// ReadPart returns a part's bytes.
func (b *Bundle) ReadPart(p Part) ([]byte, error) {
	return os.ReadFile(b.PartPath(p))
}

// Verify re-hashes every part against the manifest: a bundle whose bytes
// were touched after sealing fails here, which is what makes the manifest
// a tamper-evident record rather than a listing.
func (b *Bundle) Verify() error {
	for _, p := range b.Manifest.Parts {
		f, err := os.Open(b.PartPath(p))
		if err != nil {
			return err
		}
		h := sha256.New()
		n, err := io.Copy(h, f)
		f.Close()
		if err != nil {
			return err
		}
		if n != p.Size {
			return fmt.Errorf("bundle: part %q is %d bytes, manifest says %d", p.Name, n, p.Size)
		}
		if sum := hex.EncodeToString(h.Sum(nil)); sum != p.SHA256 {
			return fmt.Errorf("bundle: part %q hashes to %s, manifest says %s", p.Name, sum, p.SHA256)
		}
	}
	return nil
}
