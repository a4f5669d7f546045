// Command obsdiff structurally compares two run bundles written by the
// evaluation harness (evalharness -bundle) and explains the first point
// where the runs diverged — down to the first diverging timeline event and
// the root cause the monitor attributed to it.
//
// Usage:
//
//	obsdiff [flags] BUNDLE_A BUNDLE_B
//
// Exit status: 0 when the bundles are structurally equivalent (the CI
// determinism gate: same seed twice must exit 0 at any worker count), 1
// when they diverge, 2 on error (unreadable, tampered or torn bundles).
package main

import (
	"flag"
	"fmt"
	"os"

	"chameleon/internal/obs/diff"
)

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("obsdiff", flag.ExitOnError)
	quiet := fs.Bool("q", false, "suppress the report; exit status only")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: obsdiff [flags] BUNDLE_A BUNDLE_B\n\n")
		fs.PrintDefaults()
	}
	fs.Parse(os.Args[1:])
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}

	rep, err := diff.Dirs(fs.Arg(0), fs.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "obsdiff: %v\n", err)
		return 2
	}
	if !*quiet {
		if err := rep.WriteText(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "obsdiff: %v\n", err)
			return 2
		}
	}
	if rep.Empty() {
		return 0
	}
	return 1
}
