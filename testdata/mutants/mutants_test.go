// Package mutants re-runs the repository's recorded mutation checks: each
// <name>.txt beside this file names a source file, an exact fragment of it
// and its replacement, and the tests that must fail once the replacement is
// compiled in. The source tree is never touched: the mutated file is written
// to a temporary directory and handed to the go command as an -overlay.
//
// A mutant is killed only by a failing test in every listed package. A
// build failure, a fragment that no longer occurs exactly once (the code
// moved on and the mutant went stale), or a named package whose tests all
// pass fails the check. Directories named testdata are outside ./..., so
// the check runs on its own:
//
//	go test ./testdata/mutants
package mutants

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// mutant is one parsed corpus file.
type mutant struct {
	file     string   // source file, relative to the module root
	packages []string // package patterns whose tests must fail
	run      string   // -run pattern
	recorded string   // where the check was first recorded
	old, new string   // exact fragment and its replacement
}

// parseMutant reads a corpus file: '#' comment lines, then "key value"
// lines (file, packages, run, recorded), then a "--- old" block and a
// "--- new" block running to the end of the file.
func parseMutant(data string) (mutant, error) {
	var m mutant
	var block *[]string
	var old, new []string
	sc := bufio.NewScanner(strings.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "--- old":
			block = &old
		case line == "--- new":
			block = &new
		case block != nil:
			*block = append(*block, line)
		case line == "" || strings.HasPrefix(line, "#"):
		default:
			key, value, _ := strings.Cut(line, " ")
			switch key {
			case "file":
				m.file = value
			case "packages":
				m.packages = strings.Fields(value)
			case "run":
				m.run = value
			case "recorded":
				m.recorded = value
			default:
				return m, fmt.Errorf("unknown key %q", key)
			}
		}
	}
	m.old, m.new = strings.Join(old, "\n"), strings.Join(new, "\n")
	if m.file == "" || len(m.packages) == 0 || m.run == "" || m.recorded == "" || m.old == "" || m.old == m.new {
		return m, fmt.Errorf("incomplete mutant: %+v", m)
	}
	return m, nil
}

// testEvent is the part of a `go test -json` event the check reads.
type testEvent struct {
	Action  string
	Package string
	Test    string
}

// TestMutantsKilled applies every corpus mutant through -overlay and
// requires its named tests to fail, logging which tests killed it.
func TestMutantsKilled(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob("*.txt")
	if err != nil || len(files) == 0 {
		t.Fatalf("no mutants found (%v)", err)
	}
	for _, f := range files {
		name := strings.TrimSuffix(f, ".txt")
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			m, err := parseMutant(string(data))
			if err != nil {
				t.Fatal(err)
			}
			src := filepath.Join(root, m.file)
			orig, err := os.ReadFile(src)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(orig), m.old); n != 1 {
				t.Fatalf("stale mutant: the fragment occurs %d times in %s, want once", n, m.file)
			}
			dir := t.TempDir()
			mutated := filepath.Join(dir, filepath.Base(m.file))
			if err := os.WriteFile(mutated, []byte(strings.Replace(string(orig), m.old, m.new, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
			overlay, err := json.Marshal(map[string]map[string]string{"Replace": {src: mutated}})
			if err != nil {
				t.Fatal(err)
			}
			overlayPath := filepath.Join(dir, "overlay.json")
			if err := os.WriteFile(overlayPath, overlay, 0o644); err != nil {
				t.Fatal(err)
			}

			args := append([]string{"test", "-json", "-count=1", "-overlay", overlayPath, "-run", m.run}, m.packages...)
			cmd := exec.Command("go", args...)
			cmd.Dir = root
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, runErr := cmd.Output()
			if runErr == nil {
				t.Fatalf("survived: every test matching %q passes in %v (recorded in %s)", m.run, m.packages, m.recorded)
			}

			var killers []string
			failedPkgs := map[string]bool{}
			buildFailed := false
			dec := json.NewDecoder(bytes.NewReader(out))
			for dec.More() {
				var ev testEvent
				if err := dec.Decode(&ev); err != nil {
					t.Fatalf("reading go test -json: %v\n%s", err, out)
				}
				switch {
				case ev.Action == "build-fail":
					buildFailed = true
				case ev.Action == "fail" && ev.Test != "" && !strings.Contains(ev.Test, "/"):
					killers = append(killers, strings.TrimPrefix(ev.Package, "chameleon/")+"."+ev.Test)
					failedPkgs[ev.Package] = true
				}
			}
			if buildFailed || len(killers) == 0 {
				t.Fatalf("not a kill: the mutated build failed or no test ran to a failure\n%s%s", stderr.String(), out)
			}
			if len(failedPkgs) < len(m.packages) {
				t.Errorf("only %d of the %d named packages %v have a failing test: %v", len(failedPkgs), len(m.packages), m.packages, killers)
			}
			slices.Sort(killers)
			t.Logf("killed by %s", strings.Join(killers, ", "))
		})
	}
}
