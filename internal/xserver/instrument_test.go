package xserver

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/xproto"
)

// TestOneGatePerMajor pins "one request, one body": every request
// major has exactly one gate call site in this package's sources, and
// every gate call names its major as an xproto constant. It also checks
// the names the majors give their counters and trace ops: non-empty and
// unique.
func TestOneGatePerMajor(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	sites := map[string]int{} // "MajorQueryTree" → gate calls naming it
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn, ok := call.Fun.(*ast.SelectorExpr); !ok || fn.Sel.Name != "gate" || len(call.Args) == 0 {
				return true
			}
			arg, ok := call.Args[0].(*ast.SelectorExpr)
			if ok {
				pkg, isIdent := arg.X.(*ast.Ident)
				ok = isIdent && pkg.Name == "xproto"
			}
			if !ok {
				t.Errorf("%s: gate's major is not an xproto constant", fset.Position(call.Pos()))
				return true
			}
			sites[arg.Sel.Name]++
			return true
		})
	}

	names := map[string]bool{}
	for m := xproto.MajorNone; m < xproto.NumMajors; m++ {
		name := m.String()
		if name == "" || names[name] {
			t.Errorf("major %d has an empty or duplicate name %q", uint8(m), name)
		}
		names[name] = true
		want := 1
		if m == xproto.MajorNone {
			want = 0
		}
		if n := sites["Major"+name]; n != want {
			t.Errorf("%s has %d gate call sites, want %d", m, n, want)
		}
		delete(sites, "Major"+name)
	}
	for id := range sites {
		t.Errorf("a gate call names xproto.%s, which is not a request major", id)
	}
}

// recordingInstrument captures instrument callbacks for inspection.
type recordingInstrument struct {
	requests map[xproto.Major]int
	targets  []xproto.XID
}

func (r *recordingInstrument) Request(major xproto.Major, target xproto.XID) {
	if r.requests == nil {
		r.requests = map[xproto.Major]int{}
	}
	r.requests[major]++
	r.targets = append(r.targets, target)
}

func TestInstrumentSeesUnbatchedRequests(t *testing.T) {
	s := NewServer()
	c := s.Connect("test")
	root := s.Screens()[0].Root
	in := &recordingInstrument{}
	c.SetInstrument(in)

	w, err := c.CreateWindow(root, xproto.Rect{Width: 10, Height: 10}, 0, WindowAttributes{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MapWindow(w); err != nil {
		t.Fatal(err)
	}
	// A read-path request (shared lock) must be seen too.
	if _, _, err := c.GetProperty(w, c.InternAtom("WM_NAME")); err != nil {
		t.Fatal(err)
	}

	if in.requests[xproto.MajorCreateWindow] != 1 || in.requests[xproto.MajorMapWindow] != 1 || in.requests[xproto.MajorGetProperty] != 1 {
		t.Errorf("requests = %v", in.requests)
	}
}

func TestInstrumentSeesFaultedRequests(t *testing.T) {
	s := NewServer()
	c := s.Connect("test")
	root := s.Screens()[0].Root
	in := &recordingInstrument{}
	c.SetInstrument(in)
	c.SetFaultPolicy(&FaultPolicy{EveryN: 1, Code: xproto.BadWindow, Ops: []xproto.Major{xproto.MajorMapWindow}})

	w, err := c.CreateWindow(root, xproto.Rect{Width: 10, Height: 10}, 0, WindowAttributes{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MapWindow(w); err == nil {
		t.Fatal("fault rule did not fire")
	}
	// The instrument sits before the fault gate: a request that errors
	// is still a request that was issued.
	if in.requests[xproto.MajorMapWindow] != 1 {
		t.Errorf("requests = %v", in.requests)
	}
}
