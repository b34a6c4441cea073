package analysis_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
)

// The loader shells out to `go list -deps -export` once; every test
// shares it (and its parsed registry) through this lazy singleton.
var (
	loadOnce sync.Once
	loader   *analysis.Loader
	loadErr  error
)

func sharedLoader(t *testing.T) *analysis.Loader {
	t.Helper()
	loadOnce.Do(func() { loader, loadErr = analysis.NewLoader(".") })
	if loadErr != nil {
		t.Fatalf("NewLoader: %v", loadErr)
	}
	return loader
}

// waivedReasons returns the reasons of all waived findings.
func waivedReasons(t *testing.T, findings []analysis.Finding) []string {
	t.Helper()
	var reasons []string
	for _, f := range findings {
		if !f.Waived {
			continue
		}
		if f.Reason == "" {
			t.Errorf("waived finding %s has no reason", f)
		}
		reasons = append(reasons, f.Reason)
	}
	return reasons
}

func TestConnCheckGolden(t *testing.T) {
	fs := analysis.RunGolden(t, sharedLoader(t), analysis.ConnCheck, "testdata/conncheck")
	if got := waivedReasons(t, fs); len(got) != 1 {
		t.Errorf("waived findings = %d, want 1 (%q)", len(got), got)
	}
}

func TestLockOrderGolden(t *testing.T) {
	// One waiver: the peek escape.
	fs := analysis.RunGolden(t, sharedLoader(t), analysis.LockOrder, "testdata/lockorder")
	if got := waivedReasons(t, fs); len(got) != 1 {
		t.Errorf("waived findings = %d, want 1 (%q)", len(got), got)
	}
}

func TestFuncRefGolden(t *testing.T) {
	// The deliberately broken policy fixture: one unknown function, one
	// unknown modifier, one unknown event (see the // want comments),
	// plus a waived line carrying two defects of its own.
	fs := analysis.RunGolden(t, sharedLoader(t), analysis.FuncRef, "testdata/funcref")
	if got := waivedReasons(t, fs); len(got) != 2 {
		t.Errorf("waived findings = %d, want 2 (%q)", len(got), got)
	}
}

func TestAtomicFieldGolden(t *testing.T) {
	fs := analysis.RunGolden(t, sharedLoader(t), analysis.AtomicField, "testdata/atomicfield")
	if got := waivedReasons(t, fs); len(got) != 1 {
		t.Errorf("waived findings = %d, want 1 (%q)", len(got), got)
	}
}

func TestSnapshotImmutGolden(t *testing.T) {
	fs := analysis.RunGolden(t, sharedLoader(t), analysis.SnapshotImmut, "testdata/snapshotimmut")
	if got := waivedReasons(t, fs); len(got) != 1 {
		t.Errorf("waived findings = %d, want 1 (%q)", len(got), got)
	}
}

func TestWaiverAuditGolden(t *testing.T) {
	// Four dead waivers (one left behind by a reworded usage line, one
	// plain, two stacked), none waivable; the live waiver in the
	// fixture must stay unreported.
	fs := analysis.RunGolden(t, sharedLoader(t), analysis.WaiverAudit, "testdata/waiveraudit")
	if got := waivedReasons(t, fs); len(got) != 0 {
		t.Errorf("waived findings = %d, want 0 (%q)", len(got), got)
	}
	dead := 0
	for _, f := range fs {
		if f.ID == "waiveraudit.dead" {
			dead++
		}
	}
	if dead != 4 {
		t.Errorf("dead waivers = %d, want 4", dead)
	}
}

// TestRegistryExtraction pins the registry to the real tables: the
// function names come from internal/core/functions.go and the modifiers
// from internal/bindings/bindings.go, not from a hand-kept copy.
func TestRegistryExtraction(t *testing.T) {
	reg, err := sharedLoader(t).Ctx.Registry()
	if err != nil {
		t.Fatalf("Registry: %v", err)
	}
	for _, fn := range []string{"f.raise", "f.pangoto", "f.quit", "f.nextdesktop"} {
		if !reg.Functions[fn] {
			t.Errorf("Functions[%q] = false, want true", fn)
		}
	}
	if reg.Functions["f.pangotoo"] {
		t.Error(`Functions["f.pangotoo"] = true, want false`)
	}
	for _, m := range []string{"meta", "ctrl", "shift", "any", "mod3"} {
		if !reg.Modifiers[m] {
			t.Errorf("Modifiers[%q] = false, want true", m)
		}
	}
	if reg.Modifiers["mta"] {
		t.Error(`Modifiers["mta"] = true, want false`)
	}
}

func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := analysis.WriteJSON(&buf, nil); err != nil {
		t.Fatalf("WriteJSON(nil): %v", err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Errorf("WriteJSON(nil) = %q, want []", got)
	}

	buf.Reset()
	fs := []analysis.Finding{{
		Analyzer: "conncheck",
		ID:       "conncheck.discard",
		File:     "a.go",
		Line:     3,
		Col:      2,
		Message:  "discarded error",
		Waived:   true,
		Reason:   "best-effort",
	}}
	if err := analysis.WriteJSON(&buf, fs); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	for _, want := range []string{
		`"id": "conncheck.discard"`,
		`"analyzer": "conncheck"`,
		`"file": "a.go"`,
		`"line": 3`,
		`"waived": true`,
		`"reason": "best-effort"`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("WriteJSON output missing %s:\n%s", want, buf.String())
		}
	}
}

// TestRepoIsClean dogfoods the whole suite over the module — the same
// gate the blocking CI job enforces: zero unwaived findings.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide sweep skipped in -short mode")
	}
	l := sharedLoader(t)
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatalf("Load(./...): %v", err)
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Fatalf("%s: type error: %v", pkg.ImportPath, terr)
		}
		for _, f := range analysis.Run(pkg, l.Ctx, analysis.All()) {
			if !f.Waived {
				t.Errorf("unwaived finding: %s", f)
			}
		}
	}
}
