// Package analysis is swm's repo-specific static-analysis suite. It
// enforces, by machine, invariants first established by hand: the rule
// that no error from an xserver.Conn request or an icccm helper is
// silently swallowed (every one is routed through a check helper or
// explicitly waived), the rule that the server lock is never
// re-entered, and the rule that every `f.*` function name and binding
// modifier written in a policy string actually exists.
//
// The concurrency checks pin the lock-free xserver scheme (DESIGN.md
// §12–13): lockorder models the full hierarchy
// Server.mu > inputMu > Conn.qMu/errMu, with the property cell's
// propMu a leaf never held across another acquire, atomicfield flags
// == and != between sync/atomic values (the one plain use of an atomic
// that compiles and passes go vet), snapshotimmut freezes values
// published through atomic.Pointer Stores, and waiveraudit keeps the
// //swm:ok ledger from accreting dead entries. Each analyzer catches a
// bug that the compiler, go vet and the tests miss; DESIGN.md §8
// records the mutation that shows it.
//
// The suite is built only on the standard library (go/parser, go/ast,
// go/types); there is deliberately no golang.org/x/tools dependency so
// the module stays dependency-free. Packages are type-checked against
// export data obtained from `go list -export`, which the Go toolchain
// produces from its build cache.
//
// A finding may be waived in source with a trailing or preceding
// comment of the form:
//
//	//swm:ok <reason>
//
// The reason is mandatory; a bare `//swm:ok` does not waive anything.
// Waived findings are still reported (with Waived set) so `swmvet
// -json` output stays a complete inventory.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name is the analyzer's short name ("conncheck", ...). Finding IDs
	// are derived from it.
	Name string
	// Doc is a one-line description of what the analyzer flags.
	Doc string
	// Run reports findings on the pass via Pass.Reportf.
	Run func(*Pass)
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		ConnCheck,
		LockOrder,
		FuncRef,
		AtomicField,
		SnapshotImmut,
		WaiverAudit,
	}
}

// A Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Ctx carries repo-level context shared by every pass (the module
	// root and the f.*/modifier registry extracted from it).
	Ctx *Context

	findings []Finding
}

// A Finding is one report. File is relative to the module root when the
// file is inside it. Stable IDs have the form "<analyzer>.<kind>".
type Finding struct {
	Analyzer string `json:"analyzer"`
	ID       string `json:"id"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
	Waived   bool   `json:"waived"`
	Reason   string `json:"reason,omitempty"`

	// anchorLine is an additional line whose //swm:ok waiver also
	// covers this finding — used for findings inside multi-line string
	// literals, where the offending line is string content and cannot
	// carry a comment of its own.
	anchorLine int
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.ID, f.Message)
}

// Reportf records a finding at pos. kind is the ID suffix.
func (p *Pass) Reportf(pos token.Pos, kind, format string, args ...any) {
	p.report(pos, token.NoPos, kind, format, args...)
}

// ReportfAnchored records a finding at pos whose waiver may also sit on
// anchor's line (the enclosing string literal's first line).
func (p *Pass) ReportfAnchored(pos, anchor token.Pos, kind, format string, args ...any) {
	p.report(pos, anchor, kind, format, args...)
}

func (p *Pass) report(pos, anchor token.Pos, kind, format string, args ...any) {
	position := p.Fset.Position(pos)
	f := Finding{
		Analyzer: p.Analyzer.Name,
		ID:       p.Analyzer.Name + "." + kind,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	}
	if anchor.IsValid() {
		f.anchorLine = p.Fset.Position(anchor).Line
	}
	p.findings = append(p.findings, f)
}

// Run executes the given analyzers over one loaded package, applies
// //swm:ok waivers, and returns findings sorted by position.
//
// WaiverAudit is special: it reports waivers no other analyzer's
// findings consume, so requesting it runs the rest of the suite
// internally (findings of analyzers not in the request are used only
// to mark waivers live, never reported). Each analyzer still runs at
// most once per Run call.
func Run(pkg *Package, ctx *Context, analyzers []*Analyzer) []Finding {
	waivers := collectWaivers(pkg)
	raw := make(map[*Analyzer][]Finding)
	// rawRun runs one analyzer (memoized), applies waivers to its
	// findings, and marks each consumed waiver used.
	rawRun := func(a *Analyzer) []Finding {
		if fs, ok := raw[a]; ok {
			return fs
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Ctx:      ctx,
		}
		a.Run(pass)
		for i := range pass.findings {
			f := &pass.findings[i]
			if w := waivers.match(f.File, f.Line); w != nil {
				f.Waived, f.Reason = true, w.reason
				w.used = true
			} else if f.anchorLine != 0 {
				if w := waivers.match(f.File, f.anchorLine); w != nil {
					f.Waived, f.Reason = true, w.reason
					w.used = true
				}
			}
		}
		raw[a] = pass.findings
		return pass.findings
	}

	var all []Finding
	auditRequested := false
	for _, a := range analyzers {
		if a == WaiverAudit {
			auditRequested = true
			continue
		}
		all = append(all, rawRun(a)...)
	}
	if auditRequested {
		// Mark waiver usage across the *whole* suite, not just the
		// requested subset: a waiver is live if any analyzer needs it.
		for _, a := range All() {
			if a != WaiverAudit {
				rawRun(a)
			}
		}
		all = append(all, auditWaivers(waivers)...)
	}
	for i := range all {
		all[i].File = ctx.rel(all[i].File)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].File != all[j].File {
			return all[i].File < all[j].File
		}
		if all[i].Line != all[j].Line {
			return all[i].Line < all[j].Line
		}
		if all[i].Col != all[j].Col {
			return all[i].Col < all[j].Col
		}
		return all[i].ID < all[j].ID
	})
	return all
}

// A waiver is one //swm:ok comment, tracked so the audit can tell live
// waivers (some finding consumed them) from dead ones.
type waiver struct {
	line   int
	col    int
	reason string
	used   bool
}

// waiverSet maps file -> line -> waiver. A waiver on line N covers
// findings on line N (trailing comment) and line N+1 (comment on its
// own line above the offending one).
type waiverSet map[string]map[int]*waiver

// match returns the waiver covering a finding on the given line, or
// nil. The caller marks the returned waiver used.
func (ws waiverSet) match(file string, line int) *waiver {
	lines, ok := ws[file]
	if !ok {
		return nil
	}
	if w, ok := lines[line]; ok {
		return w
	}
	if w, ok := lines[line-1]; ok {
		return w
	}
	return nil
}

const waiverPrefix = "//swm:ok"

func collectWaivers(pkg *Package) waiverSet {
	ws := make(waiverSet)
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, waiverPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, waiverPrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					// "//swm:okay ..." is some other comment, not a
					// misspelled waiver.
					continue
				}
				reason := strings.TrimSpace(rest)
				if reason == "" {
					// A waiver without a reason is not a waiver: the
					// whole point is that every suppression explains
					// itself.
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				lines := ws[pos.Filename]
				if lines == nil {
					lines = make(map[int]*waiver)
					ws[pos.Filename] = lines
				}
				lines[pos.Line] = &waiver{line: pos.Line, col: pos.Column, reason: reason}
			}
		}
	}
	return ws
}

// --- shared AST/type helpers --------------------------------------------

// calleeFunc resolves the *types.Func a call statically invokes, or nil
// for calls through function values, built-ins, and conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// recvTypeName returns the name of a method's receiver type ("Conn" for
// func (c *Conn) ...), or "" for plain functions.
func recvTypeName(f *types.Func) string {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// lastResultIsError reports whether f's final result is an error, and
// how many results it has.
func lastResultIsError(f *types.Func) (n int, isErr bool) {
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return 0, false
	}
	res := sig.Results()
	if res.Len() == 0 {
		return 0, false
	}
	return res.Len(), isErrorType(res.At(res.Len() - 1).Type())
}

// isBlank reports whether e is the blank identifier.
func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// funcDecls yields every function declaration with a body.
func funcDecls(files []*ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}
