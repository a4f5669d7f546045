package obs

import (
	"runtime"
	"runtime/debug"
)

// BuildInfo identifies the binary that produced an artifact: toolchain,
// module, and — when the binary was built from a VCS checkout — the exact
// revision. It is observational metadata: run bundles record it in their
// manifest, but it never participates in content
// addressing or diffing, because two runs of the same seeds must compare
// equal across commits that do not change behavior.
type BuildInfo struct {
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	Module      string `json:"module,omitempty"`
	Version     string `json:"version,omitempty"`
	VCSRevision string `json:"vcs_revision,omitempty"`
	VCSTime     string `json:"vcs_time,omitempty"`
	VCSModified bool   `json:"vcs_modified,omitempty"`
}

// Build reads the running binary's build information via
// debug.ReadBuildInfo. Binaries built without module support (pure `go
// test` of a vendored tree, stripped builds) still get the toolchain
// triple; everything else degrades to empty fields.
func Build() BuildInfo {
	b := BuildInfo{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return b
	}
	b.Module = info.Main.Path
	b.Version = info.Main.Version
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			b.VCSRevision = s.Value
		case "vcs.time":
			b.VCSTime = s.Value
		case "vcs.modified":
			b.VCSModified = s.Value == "true"
		}
	}
	return b
}
