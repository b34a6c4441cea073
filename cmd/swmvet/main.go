// Command swmvet runs swm's repo-specific static-analysis suite
// (internal/analysis) over the given package patterns:
//
//	go run ./cmd/swmvet ./...
//	go run ./cmd/swmvet -json ./internal/core
//	go run ./cmd/swmvet -analyzers conncheck,lockorder ./internal/xserver
//	go run ./cmd/swmvet -fixtures
//
// The exit status is 0 when every finding is waived or absent, 1 when
// unwaived findings remain, and 2 on usage or load errors — so the
// blocking CI job is just `go run ./cmd/swmvet ./...`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("swmvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit machine-readable findings (including waived ones)")
	showWaived := fs.Bool("waived", false, "also list waived findings in text output")
	names := fs.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	list := fs.Bool("list", false, "list available analyzers and exit")
	fixtures := fs.Bool("fixtures", false, "self-check: run every analyzer against its golden fixtures and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := analysis.ByName(*names)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if *fixtures {
		return runFixtures(loader, analyzers, stdout, stderr)
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
		all = append(all, analysis.Run(pkg, loader.Ctx, analyzers)...)
	}

	switch {
	case *jsonOut:
		if err := analysis.WriteJSON(stdout, all); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	default:
		for _, f := range all {
			if f.Waived {
				if *showWaived {
					fmt.Fprintf(stdout, "%s (waived: %s)\n", f, f.Reason)
				}
				continue
			}
			fmt.Fprintln(stdout, f)
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

// runFixtures golden-tests each requested analyzer against its
// testdata package, the same check `go test ./internal/analysis` runs
// — available standalone so a CI step (or a developer mid-refactor)
// can validate the suite without the test harness.
func runFixtures(loader *analysis.Loader, analyzers []*analysis.Analyzer, stdout, stderr io.Writer) int {
	failed := false
	for _, a := range analyzers {
		dir := filepath.Join(loader.Ctx.ModuleDir, "internal", "analysis", "testdata", a.Name)
		if _, err := os.Stat(dir); err != nil {
			fmt.Fprintf(stderr, "swmvet: %s: no fixture directory (%s)\n", a.Name, dir)
			failed = true
			continue
		}
		t := &cliT{name: a.Name, out: stderr}
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(fixtureAbort); !ok {
						panic(r)
					}
				}
			}()
			analysis.RunGolden(t, loader, a, dir)
		}()
		if t.failed {
			failed = true
			fmt.Fprintf(stdout, "swmvet: %-14s FAIL\n", a.Name)
		} else {
			fmt.Fprintf(stdout, "swmvet: %-14s ok\n", a.Name)
		}
	}
	if failed {
		return 1
	}
	return 0
}

// fixtureAbort unwinds Fatalf the way testing.T's runtime.Goexit does.
type fixtureAbort struct{}

// cliT adapts the golden driver's TestingT to CLI output.
type cliT struct {
	name   string
	out    io.Writer
	failed bool
}

func (t *cliT) Helper() {}

func (t *cliT) Errorf(format string, args ...any) {
	t.failed = true
	fmt.Fprintf(t.out, "swmvet: %s: %s\n", t.name, fmt.Sprintf(format, args...))
}

func (t *cliT) Fatalf(format string, args ...any) {
	t.Errorf(format, args...)
	panic(fixtureAbort{})
}
