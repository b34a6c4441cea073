package analysis

import (
	"encoding/json"
	"fmt"
	"go/scanner"
	"go/token"
	"io"
	"regexp"
	"sort"
	"strconv"
	"testing"
)

// This file is the suite's analysistest-style golden driver, built on
// the stdlib only. A fixture package under testdata/ annotates the
// lines it expects findings on:
//
//	_ = c.MapWindow(id) // want `discarded error`
//
// Each `want` comment carries one or more Go string literals, each a
// regexp that must match the message of one unwaived finding on that
// line. Unexpected findings and unmatched expectations both fail.
// Waived findings (//swm:ok) are exempt from matching and are returned
// to the caller so tests can assert waiver behavior explicitly.

// RunGolden loads the fixture package in dir, runs the analyzer, checks
// unwaived findings against `// want` comments, and returns every
// finding (including waived ones) for further assertions.
func RunGolden(t testing.TB, l *Loader, a *Analyzer, dir string) []Finding {
	t.Helper()
	pkg, err := l.LoadDir(dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture %s has type errors: %v", dir, terr)
	}
	findings := Run(pkg, l.Ctx, []*Analyzer{a})

	wants, err := collectWants(pkg, l.Ctx)
	if err != nil {
		t.Fatalf("parsing want comments in %s: %v", dir, err)
	}
	matched := make([]bool, len(wants))
	for _, f := range findings {
		if f.Waived {
			continue
		}
		ok := false
		for i, w := range wants {
			if matched[i] || w.file != f.File || w.line != f.Line {
				continue
			}
			if w.rx.MatchString(f.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: no %s finding matched %q", w.file, w.line, a.Name, w.rx)
		}
	}
	return findings
}

type wantSpec struct {
	file string
	line int
	rx   *regexp.Regexp
}

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)`)

func collectWants(pkg *Package, ctx *Context) ([]wantSpec, error) {
	var wants []wantSpec
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rel := ctx.rel(pos.Filename)
				exprs, err := scanStringLiterals(m[1])
				if err != nil {
					return nil, fmt.Errorf("%s:%d: %w", rel, pos.Line, err)
				}
				for _, e := range exprs {
					rx, err := regexp.Compile(e)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: %w", rel, pos.Line, err)
					}
					wants = append(wants, wantSpec{file: rel, line: pos.Line, rx: rx})
				}
			}
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	return wants, nil
}

// scanStringLiterals extracts the values of consecutive Go string
// literals ("..." or `...`) from src.
func scanStringLiterals(src string) ([]string, error) {
	var s scanner.Scanner
	fset := token.NewFileSet()
	file := fset.AddFile("want", fset.Base(), len(src))
	var scanErr error
	s.Init(file, []byte(src), func(_ token.Position, msg string) {
		scanErr = fmt.Errorf("bad want expression %q: %s", src, msg)
	}, 0)
	var out []string
	for {
		_, tok, lit := s.Scan()
		if tok == token.EOF || scanErr != nil {
			break
		}
		if tok != token.STRING {
			continue
		}
		v, err := strconv.Unquote(lit)
		if err != nil {
			return nil, fmt.Errorf("bad want literal %s: %w", lit, err)
		}
		out = append(out, v)
	}
	if scanErr != nil {
		return nil, scanErr
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("want comment %q carries no string literals", src)
	}
	return out, nil
}

// WriteJSON emits findings as a JSON array, the `swmvet -json` format:
// one object per finding with id, analyzer, file, line, col, message,
// waived, and (for waived findings) the reason.
func WriteJSON(w io.Writer, findings []Finding) error {
	if findings == nil {
		findings = []Finding{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(findings)
}

// Summary renders the one-line tally swmvet prints on exit.
func Summary(findings []Finding) string {
	total, waived := 0, 0
	for _, f := range findings {
		if f.Waived {
			waived++
		} else {
			total++
		}
	}
	return fmt.Sprintf("%d finding(s), %d waived", total, waived)
}

// Unwaived counts findings that were not waived.
func Unwaived(findings []Finding) int {
	n := 0
	for _, f := range findings {
		if !f.Waived {
			n++
		}
	}
	return n
}
