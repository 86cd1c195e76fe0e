// Command doorsvet runs the determinism, hot-path and concurrency
// lint suite (internal/lint): detrandonly, saltbands, sortedemit,
// wallclock, frozenshare, shardcapture, hotalloc, retain, lockguard
// and golifetime.
//
// It speaks the go vet vettool protocol, which is how `make lint`
// invokes it:
//
//	go build -o bin/doorsvet ./cmd/doorsvet
//	go vet -vettool=$(pwd)/bin/doorsvet ./...
//
// Given package patterns instead of a vet config file, it loads and
// checks them standalone in one sequential, uncached pass over the
// dependency graph, which is convenient during development:
//
//	doorsvet ./...
//
// The -pragmas mode audits the suppression surface instead of
// linting: it lists every //lint:allow pragma in the tree (file:line,
// check, reason), then replays the full analysis with usage recording
// to prove each pragma still suppresses a finding. It exits 2 if any
// pragma is missing its reason, names an unknown check, or is stale —
// suppressing nothing, so it should be deleted:
//
//	doorsvet -pragmas [dir]
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/loader"
	"repro/internal/lint/unitchecker"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "-pragmas" {
		root := "."
		if len(args) > 1 {
			root = args[1]
		}
		os.Exit(auditPragmas(root))
	}
	// Package patterns (no flags, no *.cfg) select standalone mode;
	// everything else follows the vettool protocol.
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") && !strings.HasSuffix(args[0], ".cfg") {
		diags, err := loader.Run(".", args, lint.Suite())
		if err != nil {
			fmt.Fprintf(os.Stderr, "doorsvet: %v\n", err)
			os.Exit(2)
		}
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", d.Position, d.Message, d.Analyzer)
		}
		if len(diags) > 0 {
			os.Exit(1)
		}
		return
	}
	unitchecker.Main(lint.Suite()...)
}

// auditPragmas prints the suppression audit and returns the exit
// code: 0 when every pragma is well-formed and live, 2 when one lacks
// a reason, names a check the suite does not have, or is stale. The
// staleness proof is a full analyzer run with pragma-usage recording
// switched on: any pragma the run never consulted to suppress a
// finding no longer earns its place in the tree.
func auditPragmas(root string) int {
	pragmas, err := lint.ListPragmas(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doorsvet: %v\n", err)
		return 2
	}
	bad := 0
	for _, p := range pragmas {
		fmt.Println(p)
		if p.Reason == "" {
			fmt.Fprintf(os.Stderr, "doorsvet: %s:%d: //lint:allow %s has no reason (write //lint:allow %s -- <why>)\n",
				p.File, p.Line, p.Check, p.Check)
			bad++
		}
		if !p.Known {
			fmt.Fprintf(os.Stderr, "doorsvet: %s:%d: //lint:allow %s names an unknown check\n",
				p.File, p.Line, p.Check)
			bad++
		}
	}

	// Stale detection: re-run the suite recording which pragmas fire.
	lint.RecordPragmaUsage()
	if _, err := loader.Run(root, []string{"./..."}, lint.Suite()); err != nil {
		fmt.Fprintf(os.Stderr, "doorsvet: pragma usage analysis: %v\n", err)
		return 2
	}
	for _, p := range pragmas {
		if p.Reason == "" || !p.Known {
			continue // already flagged above
		}
		abs, err := filepath.Abs(filepath.Join(root, filepath.FromSlash(p.File)))
		if err != nil {
			abs = filepath.Join(root, filepath.FromSlash(p.File))
		}
		if !lint.PragmaUsed(abs, p.Line) {
			fmt.Fprintf(os.Stderr, "doorsvet: %s:%d: //lint:allow %s is stale: it suppresses no finding; delete it\n",
				p.File, p.Line, p.Check)
			bad++
		}
	}
	if bad > 0 {
		return 2
	}
	return 0
}
