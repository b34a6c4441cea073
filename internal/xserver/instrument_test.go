package xserver

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/xproto"
)

// TestRequestMajorsMatchFaultSites cross-checks the RequestMajors list
// against the gate call sites in this package's sources. The list
// exists so instrument implementations can pre-build per-major state; a
// request method added without updating it would silently land in an
// instrument's "other" bucket. Each major must also have exactly one
// gate site: one request, one body.
func TestRequestMajorsMatchFaultSites(t *testing.T) {
	re := regexp.MustCompile(`\.gate\("([A-Za-z]+)"`)
	sites := map[string]int{}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range re.FindAllStringSubmatch(string(src), -1) {
			sites[m[1]]++
		}
	}
	if len(sites) == 0 {
		t.Fatal("no gate call sites found — did the gate get renamed?")
	}
	for major, n := range sites {
		if n != 1 {
			t.Errorf("request %q has %d gate call sites, want exactly 1", major, n)
		}
	}

	listed := map[string]bool{}
	for _, major := range RequestMajors {
		if listed[major] {
			t.Errorf("RequestMajors lists %s twice", major)
		}
		listed[major] = true
	}
	for major := range sites {
		if !listed[major] {
			t.Errorf("gate site %q missing from RequestMajors", major)
		}
	}
	for major := range listed {
		if sites[major] == 0 {
			t.Errorf("RequestMajors lists %q but no gate site uses it", major)
		}
	}
	if !sort.StringsAreSorted(RequestMajors) {
		t.Error("RequestMajors not sorted")
	}
}

// recordingInstrument captures instrument callbacks for inspection.
type recordingInstrument struct {
	requests map[string]int
	targets  []xproto.XID
}

func (r *recordingInstrument) Request(major string, target xproto.XID) {
	if r.requests == nil {
		r.requests = map[string]int{}
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

	if in.requests["CreateWindow"] != 1 || in.requests["MapWindow"] != 1 || in.requests["GetProperty"] != 1 {
		t.Errorf("requests = %v", in.requests)
	}
}

func TestInstrumentSeesFaultedRequests(t *testing.T) {
	s := NewServer()
	c := s.Connect("test")
	root := s.Screens()[0].Root
	in := &recordingInstrument{}
	c.SetInstrument(in)
	c.SetFaultPolicy(&FaultPolicy{EveryN: 1, Code: xproto.BadWindow, Ops: []string{"MapWindow"}})

	w, err := c.CreateWindow(root, xproto.Rect{Width: 10, Height: 10}, 0, WindowAttributes{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MapWindow(w); err == nil {
		t.Fatal("fault rule did not fire")
	}
	// The instrument sits before the fault gate: a request that errors
	// is still a request that was issued.
	if in.requests["MapWindow"] != 1 {
		t.Errorf("requests = %v", in.requests)
	}
}
