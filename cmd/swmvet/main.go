// Command swmvet runs swm's repo-specific static-analysis suite
// (internal/analysis) over the given package patterns:
//
//	go run ./cmd/swmvet ./...
//	go run ./cmd/swmvet -json ./internal/core
//
// Text output lists the unwaived findings and a tally; -json emits
// every finding, waived ones included. The exit status is 0 when every
// finding is waived or absent, 1 when unwaived findings remain, and 2
// on usage or load errors — so the blocking CI job is just
// `go run ./cmd/swmvet ./...`. The analyzers' golden fixtures run under
// `go test ./internal/analysis`.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("swmvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit machine-readable findings (including waived ones)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	var all []analysis.Finding
	loadBroken := false
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(stderr, "swmvet: %s: type error: %v\n", pkg.ImportPath, terr)
			loadBroken = true
		}
		all = append(all, analysis.Run(pkg, loader.Ctx, analysis.All())...)
	}

	switch {
	case *jsonOut:
		if err := analysis.WriteJSON(stdout, all); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	default:
		for _, f := range all {
			if !f.Waived {
				fmt.Fprintln(stdout, f)
			}
		}
		fmt.Fprintf(stdout, "swmvet: %s\n", analysis.Summary(all))
	}

	switch {
	case loadBroken:
		return 2
	case analysis.Unwaived(all) > 0:
		return 1
	}
	return 0
}
