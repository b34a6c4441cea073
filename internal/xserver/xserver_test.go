package xserver

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/xproto"
)

func newTestServer(t *testing.T) (*Server, *Conn) {
	t.Helper()
	s := NewServer()
	return s, s.Connect("test")
}

func mustCreate(t *testing.T, c *Conn, parent xproto.XID, r xproto.Rect) xproto.XID {
	t.Helper()
	id, err := c.CreateWindow(parent, r, 0, WindowAttributes{})
	if err != nil {
		t.Fatalf("CreateWindow: %v", err)
	}
	return id
}

func drain(c *Conn) []xproto.Event {
	var evs []xproto.Event
	for {
		ev, ok := c.PollEvent()
		if !ok {
			return evs
		}
		evs = append(evs, ev)
	}
}

func TestNewServerDefaultScreen(t *testing.T) {
	s := NewServer()
	scr := s.Screens()
	if len(scr) != 1 {
		t.Fatalf("got %d screens, want 1", len(scr))
	}
	if scr[0].Width != 1152 || scr[0].Height != 900 {
		t.Errorf("default screen = %dx%d, want 1152x900", scr[0].Width, scr[0].Height)
	}
	if scr[0].Root == xproto.None {
		t.Error("root window is None")
	}
}

func TestMultiScreen(t *testing.T) {
	s := NewServer(
		ScreenSpec{Width: 1024, Height: 768},
		ScreenSpec{Width: 800, Height: 600, Monochrome: true},
	)
	scr := s.Screens()
	if len(scr) != 2 {
		t.Fatalf("got %d screens, want 2", len(scr))
	}
	if !scr[1].Monochrome {
		t.Error("screen 1 should be monochrome")
	}
	if scr[0].Root == scr[1].Root {
		t.Error("screens share a root window")
	}
}

func TestCreateWindowGeometry(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	id := mustCreate(t, c, root, xproto.Rect{X: 10, Y: 20, Width: 300, Height: 200})
	g, err := c.GetGeometry(id)
	if err != nil {
		t.Fatal(err)
	}
	want := xproto.Rect{X: 10, Y: 20, Width: 300, Height: 200}
	if g.Rect != want {
		t.Errorf("geometry = %v, want %v", g.Rect, want)
	}
	if g.Root != root {
		t.Errorf("root = %v, want %v", g.Root, root)
	}
}

func TestCreateWindowRejectsZeroSize(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	if _, err := c.CreateWindow(root, xproto.Rect{Width: 0, Height: 10}, 0, WindowAttributes{}); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := c.CreateWindow(root, xproto.Rect{Width: 10, Height: 0}, 0, WindowAttributes{}); err == nil {
		t.Error("zero height accepted")
	}
}

func TestCreateNotifyDelivery(t *testing.T) {
	s, c := newTestServer(t)
	wm := s.Connect("wm")
	root := s.Screens()[0].Root
	if err := wm.SelectInput(root, xproto.SubstructureNotifyMask); err != nil {
		t.Fatal(err)
	}
	id := mustCreate(t, c, root, xproto.Rect{X: 1, Y: 2, Width: 30, Height: 40})
	evs := drain(wm)
	if len(evs) != 1 || evs[0].Type != xproto.CreateNotify {
		t.Fatalf("got %v, want one CreateNotify", evs)
	}
	if evs[0].Subwindow != id || evs[0].Width != 30 || evs[0].Height != 40 {
		t.Errorf("CreateNotify fields wrong: %+v", evs[0])
	}
}

func TestMapRequestRedirection(t *testing.T) {
	s, c := newTestServer(t)
	wm := s.Connect("wm")
	root := s.Screens()[0].Root
	if err := wm.SelectInput(root, xproto.SubstructureRedirectMask); err != nil {
		t.Fatal(err)
	}
	id := mustCreate(t, c, root, xproto.Rect{Width: 100, Height: 100})
	if err := c.MapWindow(id); err != nil {
		t.Fatal(err)
	}
	// Window must NOT be mapped; wm gets MapRequest.
	attrs, _ := c.GetWindowAttributes(id)
	if attrs.MapState != xproto.IsUnmapped {
		t.Error("window mapped despite redirection")
	}
	evs := drain(wm)
	if len(evs) != 1 || evs[0].Type != xproto.MapRequest || evs[0].Subwindow != id {
		t.Fatalf("got %v, want one MapRequest for %v", evs, id)
	}
	// WM maps it: no redirect applies to the redirector itself.
	if err := wm.MapWindow(id); err != nil {
		t.Fatal(err)
	}
	attrs, _ = c.GetWindowAttributes(id)
	if attrs.MapState != xproto.IsViewable {
		t.Error("window not viewable after WM mapped it")
	}
}

func TestOverrideRedirectBypassesRedirection(t *testing.T) {
	s, c := newTestServer(t)
	wm := s.Connect("wm")
	root := s.Screens()[0].Root
	if err := wm.SelectInput(root, xproto.SubstructureRedirectMask); err != nil {
		t.Fatal(err)
	}
	id, err := c.CreateWindow(root, xproto.Rect{Width: 50, Height: 50}, 0,
		WindowAttributes{OverrideRedirect: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.MapWindow(id); err != nil {
		t.Fatal(err)
	}
	attrs, _ := c.GetWindowAttributes(id)
	if attrs.MapState != xproto.IsViewable {
		t.Error("override-redirect window was redirected")
	}
	for _, ev := range drain(wm) {
		if ev.Type == xproto.MapRequest {
			t.Error("MapRequest generated for override-redirect window")
		}
	}
}

func TestConfigureRequestRedirection(t *testing.T) {
	s, c := newTestServer(t)
	wm := s.Connect("wm")
	root := s.Screens()[0].Root
	if err := wm.SelectInput(root, xproto.SubstructureRedirectMask); err != nil {
		t.Fatal(err)
	}
	id := mustCreate(t, c, root, xproto.Rect{X: 5, Y: 5, Width: 100, Height: 100})
	if err := c.MoveResizeWindow(id, xproto.Rect{X: 50, Y: 60, Width: 200, Height: 150}); err != nil {
		t.Fatal(err)
	}
	g, _ := c.GetGeometry(id)
	if g.Rect.X != 5 || g.Rect.Width != 100 {
		t.Error("geometry changed despite redirection")
	}
	evs := drain(wm)
	if len(evs) != 1 || evs[0].Type != xproto.ConfigureRequest {
		t.Fatalf("got %v, want one ConfigureRequest", evs)
	}
	ev := evs[0]
	if ev.GX != 50 || ev.GY != 60 || ev.Width != 200 || ev.Height != 150 {
		t.Errorf("ConfigureRequest fields: %+v", ev)
	}
	wantMask := xproto.CWX | xproto.CWY | xproto.CWWidth | xproto.CWHeight
	if ev.ValueMask != wantMask {
		t.Errorf("ValueMask = %b, want %b", ev.ValueMask, wantMask)
	}
}

func TestOnlyOneSubstructureRedirector(t *testing.T) {
	s, _ := newTestServer(t)
	wm1 := s.Connect("wm1")
	wm2 := s.Connect("wm2")
	root := s.Screens()[0].Root
	if err := wm1.SelectInput(root, xproto.SubstructureRedirectMask); err != nil {
		t.Fatal(err)
	}
	if err := wm2.SelectInput(root, xproto.SubstructureRedirectMask); err == nil {
		t.Error("second SubstructureRedirect selection should fail (another WM is running)")
	}
}

func TestReparentWindow(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	frame := mustCreate(t, c, root, xproto.Rect{X: 100, Y: 100, Width: 220, Height: 240})
	client := mustCreate(t, c, root, xproto.Rect{X: 5, Y: 5, Width: 200, Height: 200})
	if err := c.SelectInput(client, xproto.StructureNotifyMask); err != nil {
		t.Fatal(err)
	}
	if err := c.ReparentWindow(client, frame, 10, 30); err != nil {
		t.Fatal(err)
	}
	_, parent, _, err := c.QueryTree(client)
	if err != nil {
		t.Fatal(err)
	}
	if parent != frame {
		t.Errorf("parent = %v, want %v", parent, frame)
	}
	g, _ := c.GetGeometry(client)
	if g.Rect.X != 10 || g.Rect.Y != 30 {
		t.Errorf("position after reparent = (%d,%d), want (10,30)", g.Rect.X, g.Rect.Y)
	}
	var sawReparent bool
	for _, ev := range drain(c) {
		if ev.Type == xproto.ReparentNotify && ev.Window == client && ev.Parent == frame {
			sawReparent = true
		}
	}
	if !sawReparent {
		t.Error("no ReparentNotify delivered to the window")
	}
}

func TestReparentCycleRejected(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	a := mustCreate(t, c, root, xproto.Rect{Width: 10, Height: 10})
	b := mustCreate(t, c, a, xproto.Rect{Width: 5, Height: 5})
	if err := c.ReparentWindow(a, b, 0, 0); err == nil {
		t.Error("reparenting a window under its own descendant should fail")
	}
	if err := c.ReparentWindow(a, a, 0, 0); err == nil {
		t.Error("reparenting a window under itself should fail")
	}
}

// TestReparentAcrossScreensIsBadMatch pins X11's rule that a new
// parent on another screen than the old parent is a Match error, and
// that the failed request changes nothing: parent, both parents' child
// lists, geometry and map state stay, no event is generated, and the
// error handler fires once.
func TestReparentAcrossScreensIsBadMatch(t *testing.T) {
	s := NewServer(ScreenSpec{Width: 800, Height: 600}, ScreenSpec{Width: 640, Height: 480})
	c := s.Connect("t")
	root0, root1 := s.Screens()[0].Root, s.Screens()[1].Root
	frame := mustCreate(t, c, root1, xproto.Rect{Width: 100, Height: 100})
	w := mustCreate(t, c, root0, xproto.Rect{X: 7, Y: 9, Width: 50, Height: 40})
	if err := c.MapWindow(frame); err != nil {
		t.Fatal(err)
	}
	if err := c.MapWindow(w); err != nil {
		t.Fatal(err)
	}
	for win, mask := range map[xproto.XID]xproto.EventMask{
		w: xproto.StructureNotifyMask, root0: xproto.SubstructureNotifyMask, frame: xproto.SubstructureNotifyMask,
	} {
		if err := c.SelectInput(win, mask); err != nil {
			t.Fatal(err)
		}
	}
	drain(c)
	var noted []*xproto.XError
	c.SetErrorHandler(func(e *xproto.XError) { noted = append(noted, e) })

	err := c.ReparentWindow(w, frame, 3, 4)
	var xe *xproto.XError
	if !errors.As(err, &xe) || xe.Code != xproto.BadMatch || xe.Major != xproto.MajorReparentWindow || xe.Resource != w {
		t.Fatalf("ReparentWindow across screens = %v, want BadMatch on ReparentWindow for %v", err, w)
	}
	if len(noted) != 1 {
		t.Errorf("error handler fired %d times, want 1", len(noted))
	}
	if evs := drain(c); len(evs) != 0 {
		t.Errorf("failed reparent generated events: %v", evs)
	}
	if _, parent, _, _ := c.QueryTree(w); parent != root0 {
		t.Errorf("parent = %v, want %v", parent, root0)
	}
	if _, _, kids, _ := c.QueryTree(root0); len(kids) != 1 || kids[0] != w {
		t.Errorf("old parent's children = %v, want [%v]", kids, w)
	}
	if _, _, kids, _ := c.QueryTree(frame); len(kids) != 0 {
		t.Errorf("new parent's children = %v, want none", kids)
	}
	if g, _ := c.GetGeometry(w); g.Rect != (xproto.Rect{X: 7, Y: 9, Width: 50, Height: 40}) || g.Root != root0 {
		t.Errorf("geometry = %+v, want 50x40+7+9 on root %v", g, root0)
	}
	if attrs, _ := c.GetWindowAttributes(w); attrs.MapState != xproto.IsViewable {
		t.Errorf("map state = %v, want viewable", attrs.MapState)
	}
}

func TestReparentKeepsMapState(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	frame := mustCreate(t, c, root, xproto.Rect{Width: 100, Height: 100})
	client := mustCreate(t, c, root, xproto.Rect{Width: 50, Height: 50})
	if err := c.MapWindow(frame); err != nil {
		t.Fatal(err)
	}
	if err := c.MapWindow(client); err != nil {
		t.Fatal(err)
	}
	if err := c.ReparentWindow(client, frame, 0, 0); err != nil {
		t.Fatal(err)
	}
	attrs, _ := c.GetWindowAttributes(client)
	if attrs.MapState != xproto.IsViewable {
		t.Error("mapped window not remapped after reparent")
	}
}

func TestStackingRaiseLower(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	a := mustCreate(t, c, root, xproto.Rect{Width: 10, Height: 10})
	b := mustCreate(t, c, root, xproto.Rect{Width: 10, Height: 10})
	d := mustCreate(t, c, root, xproto.Rect{Width: 10, Height: 10})
	_, _, children, _ := c.QueryTree(root)
	if children[0] != a || children[2] != d {
		t.Fatalf("initial stacking %v, want [a b d]", children)
	}
	if err := c.RaiseWindow(a); err != nil {
		t.Fatal(err)
	}
	_, _, children, _ = c.QueryTree(root)
	if children[2] != a {
		t.Errorf("after raise, top = %v, want %v", children[2], a)
	}
	if err := c.LowerWindow(d); err != nil {
		t.Fatal(err)
	}
	_, _, children, _ = c.QueryTree(root)
	if children[0] != d {
		t.Errorf("after lower, bottom = %v, want %v", children[0], d)
	}
	_ = b
}

func TestStackingAboveSibling(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	a := mustCreate(t, c, root, xproto.Rect{Width: 10, Height: 10})
	b := mustCreate(t, c, root, xproto.Rect{Width: 10, Height: 10})
	d := mustCreate(t, c, root, xproto.Rect{Width: 10, Height: 10})
	err := c.ConfigureWindow(a, xproto.WindowChanges{
		Mask:    xproto.CWStackMode | xproto.CWSibling,
		Sibling: b, StackMode: xproto.Above,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _, children, _ := c.QueryTree(root)
	want := []xproto.XID{b, a, d}
	for i := range want {
		if children[i] != want[i] {
			t.Fatalf("stacking = %v, want %v", children, want)
		}
	}
}

func TestDestroyWindowRecursive(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	a := mustCreate(t, c, root, xproto.Rect{Width: 10, Height: 10})
	b := mustCreate(t, c, a, xproto.Rect{Width: 5, Height: 5})
	if err := c.DestroyWindow(a); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GetGeometry(a); err == nil {
		t.Error("destroyed window still exists")
	}
	if _, err := c.GetGeometry(b); err == nil {
		t.Error("descendant of destroyed window still exists")
	}
}

// TestDestroyRootHasNoEffect pins X11's rule for DestroyWindow on a
// root window: the request has no effect. It is not an error, so no
// error handler (and no error counter behind one) sees it.
func TestDestroyRootHasNoEffect(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	w := mustCreate(t, c, root, xproto.Rect{Width: 10, Height: 10})
	if err := c.SelectInput(root, xproto.StructureNotifyMask|xproto.SubstructureNotifyMask); err != nil {
		t.Fatal(err)
	}
	var noted []*xproto.XError
	c.SetErrorHandler(func(e *xproto.XError) { noted = append(noted, e) })
	windows, now := s.NumWindows(), s.Now()
	if err := c.DestroyWindow(root); err != nil {
		t.Errorf("DestroyWindow(root) = %v, want no error", err)
	}
	if _, err := c.GetGeometry(root); err != nil {
		t.Errorf("root gone after DestroyWindow: %v", err)
	}
	if _, err := c.GetGeometry(w); err != nil {
		t.Errorf("root's child gone after DestroyWindow(root): %v", err)
	}
	if s.NumWindows() != windows || s.Now() != now {
		t.Errorf("windows %d -> %d, time %d -> %d; want both unchanged", windows, s.NumWindows(), now, s.Now())
	}
	if evs := drain(c); len(evs) != 0 {
		t.Errorf("DestroyWindow(root) generated events: %v", evs)
	}
	if len(noted) != 0 {
		t.Errorf("error handler saw %v", noted)
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	w := mustCreate(t, c, root, xproto.Rect{Width: 10, Height: 10})
	name := c.InternAtom("WM_NAME")
	str := c.InternAtom("STRING")
	if err := c.ChangeProperty(w, name, str, 8, xproto.PropModeReplace, []byte("xclock")); err != nil {
		t.Fatal(err)
	}
	p, ok, err := c.GetProperty(w, name)
	if err != nil || !ok {
		t.Fatalf("GetProperty: ok=%v err=%v", ok, err)
	}
	if string(p.Data) != "xclock" || p.Type != str || p.Format != 8 {
		t.Errorf("property = %+v", p)
	}
}

func TestPropertyAppendPrepend(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	w := mustCreate(t, c, root, xproto.Rect{Width: 10, Height: 10})
	a := c.InternAtom("TESTPROP")
	str := c.InternAtom("STRING")
	if err := c.ChangeProperty(w, a, str, 8, xproto.PropModeReplace, []byte("bb")); err != nil {
		t.Fatal(err)
	}
	if err := c.ChangeProperty(w, a, str, 8, xproto.PropModeAppend, []byte("cc")); err != nil {
		t.Fatal(err)
	}
	if err := c.ChangeProperty(w, a, str, 8, xproto.PropModePrepend, []byte("aa")); err != nil {
		t.Fatal(err)
	}
	p, _, _ := c.GetProperty(w, a)
	if string(p.Data) != "aabbcc" {
		t.Errorf("data = %q, want aabbcc", p.Data)
	}
	// Mismatched type must fail for append.
	card := c.InternAtom("CARDINAL")
	if err := c.ChangeProperty(w, a, card, 8, xproto.PropModeAppend, []byte("x")); err == nil {
		t.Error("append with mismatched type accepted")
	}
}

func TestPropertyNotify(t *testing.T) {
	s, c := newTestServer(t)
	watcher := s.Connect("watcher")
	root := s.Screens()[0].Root
	if err := watcher.SelectInput(root, xproto.PropertyChangeMask); err != nil {
		t.Fatal(err)
	}
	a := c.InternAtom("SWM_COMMAND")
	str := c.InternAtom("STRING")
	if err := c.ChangeProperty(root, a, str, 8, xproto.PropModeReplace, []byte("f.raise")); err != nil {
		t.Fatal(err)
	}
	evs := drain(watcher)
	if len(evs) != 1 || evs[0].Type != xproto.PropertyNotify || evs[0].Atom != a {
		t.Fatalf("got %v, want one PropertyNotify for %v", evs, a)
	}
	if evs[0].PropertyState != xproto.PropertyNewValue {
		t.Error("state != PropertyNewValue")
	}
	if err := c.DeleteProperty(root, a); err != nil {
		t.Fatal(err)
	}
	evs = drain(watcher)
	if len(evs) != 1 || evs[0].PropertyState != xproto.PropertyDeleted {
		t.Fatalf("got %v, want one PropertyDeleted notify", evs)
	}
}

func TestDeleteAbsentPropertyNoNotify(t *testing.T) {
	s, c := newTestServer(t)
	watcher := s.Connect("watcher")
	root := s.Screens()[0].Root
	if err := watcher.SelectInput(root, xproto.PropertyChangeMask); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteProperty(root, c.InternAtom("NOPE")); err != nil {
		t.Fatal(err)
	}
	if evs := drain(watcher); len(evs) != 0 {
		t.Errorf("unexpected events: %v", evs)
	}
}

// TestPropertyRewriteAllocs pins the in-place rewrite: once a property
// has a value, a Replace that fits its backing array — the same length,
// a shorter value, a different value of the same length — and a Delete
// followed by a re-set allocate nothing. GetProperty allocates exactly
// the caller's copy.
func TestPropertyRewriteAllocs(t *testing.T) {
	s, c := newTestServer(t)
	w := mustCreate(t, c, s.Screens()[0].Root, xproto.Rect{Width: 10, Height: 10})
	prop := c.InternAtom("WM_NAME")
	str := c.InternAtom("STRING")
	val, other, short := []byte("some property value"), []byte("another value, same"), []byte("short")
	set := func(data []byte) {
		if err := c.ChangeProperty(w, prop, str, 8, xproto.PropModeReplace, data); err != nil {
			t.Fatal(err)
		}
	}
	set(val)
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"replace same value", func() { set(val) }},
		{"replace shorter", func() { set(short) }},
		{"replace different value, same length", func() { set(other) }},
		{"delete then re-set", func() {
			if err := c.DeleteProperty(w, prop); err != nil {
				t.Fatal(err)
			}
			set(val)
		}},
	} {
		if n := testing.AllocsPerRun(100, tc.run); n != 0 {
			t.Errorf("%s: %v allocs per run, want 0", tc.name, n)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, ok, err := c.GetProperty(w, prop); err != nil || !ok {
			t.Fatalf("GetProperty: ok=%v err=%v", ok, err)
		}
	}); n != 1 {
		t.Errorf("GetProperty: %v allocs per run, want 1 (the copy)", n)
	}
}

func TestInternAtomStable(t *testing.T) {
	s, c := newTestServer(t)
	c2 := s.Connect("other")
	a1 := c.InternAtom("MY_ATOM")
	a2 := c2.InternAtom("MY_ATOM")
	if a1 != a2 {
		t.Errorf("same name interned to different atoms: %v %v", a1, a2)
	}
	if c.AtomName(a1) != "MY_ATOM" {
		t.Errorf("AtomName = %q", c.AtomName(a1))
	}
}

// TestPredefinedAtoms checks the predefined atoms on two servers, which
// start from one shared table: both number them 1..23 in protocol
// order, and an atom one server interns stays unknown to the other.
func TestPredefinedAtoms(t *testing.T) {
	s1, c1 := newTestServer(t)
	s2, c2 := newTestServer(t)
	for i, name := range xproto.PredefinedAtoms {
		want := xproto.Atom(i + 1)
		if a := c1.InternAtom(name); a != want {
			t.Errorf("server 1: predefined atom %q = %d, want %d", name, a, want)
		}
		if a := c2.InternAtom(name); a != want {
			t.Errorf("server 2: predefined atom %q = %d, want %d", name, a, want)
		}
	}
	if n := len(xproto.PredefinedAtoms); n != 23 {
		t.Errorf("%d predefined atoms, want 23", n)
	}
	a := c1.InternAtom("ONLY_ON_ONE")
	if got := c1.AtomName(a); got != "ONLY_ON_ONE" {
		t.Errorf("server 1: AtomName(%d) = %q", a, got)
	}
	if got := c2.AtomName(a); got != "" {
		t.Errorf("server 2 knows atom %d as %q, interned only on server 1", a, got)
	}
	if _, ok := s2.atoms.Load().byName["ONLY_ON_ONE"]; ok {
		t.Error("server 2's atom table holds a name interned on server 1")
	}
	if _, ok := predefinedAtoms.byName["ONLY_ON_ONE"]; ok || len(predefinedAtoms.byName) != 23 {
		t.Error("interning on a server wrote into the shared predefined table")
	}
	if s1.atoms.Load() == predefinedAtoms || s2.atoms.Load() != predefinedAtoms {
		t.Error("only the server that missed should have left the shared table")
	}
}

// TestConcurrentAtomMissesAcrossServers interns the same new names
// concurrently on several servers that all start from the shared
// predefined table. Each server must hand out its own dense ids, agree
// with itself across goroutines, and never see another server's names;
// the race detector checks that no miss writes the shared table.
func TestConcurrentAtomMissesAcrossServers(t *testing.T) {
	const servers, workers, names = 4, 4, 16
	conns := make([][]*Conn, servers)
	for i := range conns {
		s := NewServer()
		for w := 0; w < workers; w++ {
			conns[i] = append(conns[i], s.Connect("t"))
		}
	}
	got := make([][][]xproto.Atom, servers)
	var wg sync.WaitGroup
	for i := range conns {
		got[i] = make([][]xproto.Atom, workers)
		for w, c := range conns[i] {
			wg.Add(1)
			go func(i, w int, c *Conn) {
				defer wg.Done()
				out := make([]xproto.Atom, names)
				for k := range out {
					// Each server also interns one name no other
					// server does.
					name := fmt.Sprintf("SHARED_%d", k)
					if k == names-1 {
						name = fmt.Sprintf("SERVER_%d", i)
					}
					out[k] = c.InternAtom(name)
				}
				got[i][w] = out
			}(i, w, c)
		}
	}
	wg.Wait()
	first := xproto.Atom(len(xproto.PredefinedAtoms) + 1)
	for i := range got {
		seen := make(map[xproto.Atom]bool)
		for w := range got[i] {
			for k, a := range got[i][w] {
				if a != got[i][0][k] {
					t.Errorf("server %d: workers disagree on name %d: %d vs %d", i, k, a, got[i][0][k])
				}
				if a < first || a >= first+names {
					t.Errorf("server %d: atom %d outside its own range [%d,%d)", i, a, first, first+names)
				}
				seen[a] = true
			}
		}
		if len(seen) != names {
			t.Errorf("server %d: %d distinct atoms, want %d", i, len(seen), names)
		}
		c := conns[i][0]
		for j := 0; j < servers; j++ {
			other := fmt.Sprintf("SERVER_%d", j)
			_, ok := c.server.atoms.Load().byName[other]
			if ok != (i == j) {
				t.Errorf("server %d: holds %s = %v", i, other, ok)
			}
		}
	}
	if len(predefinedAtoms.byName) != len(xproto.PredefinedAtoms) {
		t.Errorf("shared predefined table grew to %d names", len(predefinedAtoms.byName))
	}
}

func TestTranslateCoordinates(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	frame := mustCreate(t, c, root, xproto.Rect{X: 100, Y: 50, Width: 200, Height: 200})
	inner := mustCreate(t, c, frame, xproto.Rect{X: 10, Y: 20, Width: 100, Height: 100})
	if err := c.MapWindow(frame); err != nil {
		t.Fatal(err)
	}
	if err := c.MapWindow(inner); err != nil {
		t.Fatal(err)
	}
	x, y, child, err := c.TranslateCoordinates(inner, root, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if x != 110 || y != 70 {
		t.Errorf("inner origin in root coords = (%d,%d), want (110,70)", x, y)
	}
	if child != frame {
		t.Errorf("child = %v, want frame %v", child, frame)
	}
	// Reverse direction.
	x, y, _, err = c.TranslateCoordinates(root, inner, 110, 70)
	if err != nil {
		t.Fatal(err)
	}
	if x != 0 || y != 0 {
		t.Errorf("root->inner = (%d,%d), want (0,0)", x, y)
	}
}

// refChildAt is the brute-force reference for the child that
// TranslateCoordinates reports: the topmost mapped child of dst whose
// (possibly shaped) inside, border excluded, contains the dst-relative
// point. It is built from the public read requests only.
func refChildAt(t *testing.T, c *Conn, dst xproto.XID, x, y int) xproto.XID {
	t.Helper()
	_, _, kids, err := c.QueryTree(dst)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(kids) - 1; i >= 0; i-- {
		k := kids[i]
		attrs, err := c.GetWindowAttributes(k)
		if err != nil {
			t.Fatal(err)
		}
		if attrs.MapState == xproto.IsUnmapped {
			continue
		}
		g, err := c.GetGeometry(k)
		if err != nil {
			t.Fatal(err)
		}
		lx, ly := x-g.Rect.X-g.BorderWidth, y-g.Rect.Y-g.BorderWidth
		if lx < 0 || ly < 0 || lx >= g.Rect.Width || ly >= g.Rect.Height {
			continue
		}
		shaped, rects, err := c.ShapeQuery(k)
		if err != nil {
			t.Fatal(err)
		}
		in := !shaped
		for _, r := range rects {
			in = in || r.Contains(lx, ly)
		}
		if in {
			return k
		}
	}
	return xproto.None
}

// TestTranslateCoordinatesChild checks the child TranslateCoordinates
// returns against refChildAt over a grid of points, after each kind of
// change that moves a child's extent or its place in the stack.
func TestTranslateCoordinatesChild(t *testing.T) {
	cases := []struct {
		name   string
		change func(c *Conn, kids []xproto.XID) error
	}{
		{"unchanged", func(*Conn, []xproto.XID) error { return nil }},
		// A geometry-only configure takes no lock. The move is up and
		// left, where a scan that rejected on a stale position would
		// skip the child.
		{"move", func(c *Conn, kids []xproto.XID) error { return c.MoveWindow(kids[1], 5, 5) }},
		{"raise", func(c *Conn, kids []xproto.XID) error { return c.RaiseWindow(kids[0]) }},
		{"lower", func(c *Conn, kids []xproto.XID) error { return c.LowerWindow(kids[3]) }},
		{"unmap", func(c *Conn, kids []xproto.XID) error { return c.UnmapWindow(kids[3]) }},
		{"border", func(c *Conn, kids []xproto.XID) error {
			return c.ConfigureWindow(kids[2], xproto.WindowChanges{Mask: xproto.CWBorderWidth, BorderWidth: 9})
		}},
		{"shape", func(c *Conn, kids []xproto.XID) error {
			return c.ShapeCombineRectangles(kids[3], []xproto.Rect{{X: 0, Y: 0, Width: 20, Height: 90}})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, c := newTestServer(t)
			root := s.Screens()[0].Root
			dst := mustCreate(t, c, root, xproto.Rect{X: 30, Y: 40, Width: 240, Height: 200})
			// Overlapping children, bottom to top, two with borders.
			kids := []xproto.XID{
				mustCreate(t, c, dst, xproto.Rect{X: 10, Y: 10, Width: 120, Height: 100}),
				mustCreate(t, c, dst, xproto.Rect{X: 60, Y: 40, Width: 100, Height: 100}),
				mustCreate(t, c, dst, xproto.Rect{X: 100, Y: 20, Width: 80, Height: 140}),
				mustCreate(t, c, dst, xproto.Rect{X: 40, Y: 80, Width: 150, Height: 90}),
			}
			for _, id := range append([]xproto.XID{dst}, kids...) {
				if err := c.MapWindow(id); err != nil {
					t.Fatal(err)
				}
			}
			for i, bw := range []int{0, 3, 0, 5} {
				if err := c.ConfigureWindow(kids[i], xproto.WindowChanges{Mask: xproto.CWBorderWidth, BorderWidth: bw}); err != nil {
					t.Fatal(err)
				}
			}
			if err := tc.change(c, kids); err != nil {
				t.Fatal(err)
			}
			hits := 0
			for y := -4; y < 210; y += 3 {
				for x := -4; x < 250; x += 3 {
					// From the root, so the source offset is exercised too.
					dx, dy, child, err := c.TranslateCoordinates(root, dst, 30+x, 40+y)
					if err != nil {
						t.Fatal(err)
					}
					if dx != x || dy != y {
						t.Fatalf("(%d,%d) translated to (%d,%d)", x, y, dx, dy)
					}
					if want := refChildAt(t, c, dst, x, y); child != want {
						t.Fatalf("child at (%d,%d) = 0x%x, want 0x%x", x, y, uint32(child), uint32(want))
					}
					if child != xproto.None {
						hits++
					}
				}
			}
			if hits == 0 {
				t.Fatal("no point hit a child: the grid misses the layout")
			}
		})
	}
}

func TestPointerMotionAndCrossing(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	w := mustCreate(t, c, root, xproto.Rect{X: 100, Y: 100, Width: 50, Height: 50})
	if err := c.SelectInput(w, xproto.EnterWindowMask|xproto.LeaveWindowMask); err != nil {
		t.Fatal(err)
	}
	if err := c.MapWindow(w); err != nil {
		t.Fatal(err)
	}
	s.FakeMotion(125, 125)
	evs := drain(c)
	var entered bool
	for _, ev := range evs {
		if ev.Type == xproto.EnterNotify && ev.Window == w {
			entered = true
			if ev.X != 25 || ev.Y != 25 {
				t.Errorf("enter at (%d,%d), want (25,25)", ev.X, ev.Y)
			}
		}
	}
	if !entered {
		t.Fatalf("no EnterNotify; events: %v", evs)
	}
	s.FakeMotion(10, 10)
	var left bool
	for _, ev := range drain(c) {
		if ev.Type == xproto.LeaveNotify && ev.Window == w {
			left = true
		}
	}
	if !left {
		t.Error("no LeaveNotify when pointer left window")
	}
}

func TestButtonDelivery(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	w := mustCreate(t, c, root, xproto.Rect{X: 0, Y: 0, Width: 100, Height: 100})
	if err := c.SelectInput(w, xproto.ButtonPressMask|xproto.ButtonReleaseMask); err != nil {
		t.Fatal(err)
	}
	if err := c.MapWindow(w); err != nil {
		t.Fatal(err)
	}
	s.FakeMotion(40, 60)
	drain(c)
	s.FakeButtonPress(xproto.Button1, 0)
	s.FakeButtonRelease(xproto.Button1, 0)
	evs := drain(c)
	var press, release bool
	for _, ev := range evs {
		switch ev.Type {
		case xproto.ButtonPress:
			press = true
			if ev.Window != w || ev.X != 40 || ev.Y != 60 || ev.Button != 1 {
				t.Errorf("press fields: %+v", ev)
			}
		case xproto.ButtonRelease:
			release = true
		}
	}
	if !press || !release {
		t.Errorf("press=%v release=%v; events %v", press, release, evs)
	}
}

func TestButtonPropagatesToAncestor(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	outer := mustCreate(t, c, root, xproto.Rect{Width: 100, Height: 100})
	inner := mustCreate(t, c, outer, xproto.Rect{X: 10, Y: 10, Width: 50, Height: 50})
	if err := c.SelectInput(outer, xproto.ButtonPressMask); err != nil {
		t.Fatal(err)
	}
	if err := c.MapWindow(outer); err != nil {
		t.Fatal(err)
	}
	if err := c.MapWindow(inner); err != nil {
		t.Fatal(err)
	}
	s.FakeMotion(30, 30) // inside inner
	drain(c)
	s.FakeButtonPress(xproto.Button1, 0)
	s.FakeButtonRelease(xproto.Button1, 0)
	var got *xproto.Event
	for _, ev := range drain(c) {
		if ev.Type == xproto.ButtonPress {
			e := ev
			got = &e
		}
	}
	if got == nil {
		t.Fatal("no ButtonPress delivered")
	}
	if got.Window != outer {
		t.Errorf("event window = %v, want outer %v", got.Window, outer)
	}
	if got.Subwindow != inner {
		t.Errorf("subwindow = %v, want inner %v", got.Subwindow, inner)
	}
}

func TestPassiveButtonGrab(t *testing.T) {
	s, c := newTestServer(t)
	wm := s.Connect("wm")
	root := s.Screens()[0].Root
	w := mustCreate(t, c, root, xproto.Rect{Width: 100, Height: 100})
	if err := c.SelectInput(w, xproto.ButtonPressMask); err != nil {
		t.Fatal(err)
	}
	if err := c.MapWindow(w); err != nil {
		t.Fatal(err)
	}
	// WM grabs Mod1+Button1 on the root.
	if err := wm.GrabButton(root, xproto.Button1, xproto.Mod1Mask, xproto.ButtonPressMask|xproto.ButtonReleaseMask); err != nil {
		t.Fatal(err)
	}
	s.FakeMotion(50, 50)
	drain(c)
	drain(wm)
	// Plain click: goes to the client.
	s.FakeButtonPress(xproto.Button1, 0)
	s.FakeButtonRelease(xproto.Button1, 0)
	if evs := drain(wm); len(evs) != 0 {
		t.Errorf("wm got ungrabbed click: %v", evs)
	}
	if evs := drain(c); len(evs) == 0 {
		t.Error("client missed plain click")
	}
	// Mod1 click: grabbed by the WM.
	s.FakeButtonPress(xproto.Button1, xproto.Mod1Mask)
	s.FakeButtonRelease(xproto.Button1, xproto.Mod1Mask)
	var wmPress bool
	for _, ev := range drain(wm) {
		if ev.Type == xproto.ButtonPress && ev.Window == root && ev.Subwindow == w {
			wmPress = true
		}
	}
	if !wmPress {
		t.Error("wm did not receive grabbed Mod1+Button1 press")
	}
	for _, ev := range drain(c) {
		if ev.Type == xproto.ButtonPress {
			t.Error("client received grabbed press")
		}
	}
}

func TestActivePointerGrab(t *testing.T) {
	s, c := newTestServer(t)
	wm := s.Connect("wm")
	root := s.Screens()[0].Root
	w := mustCreate(t, c, root, xproto.Rect{Width: 100, Height: 100})
	if err := c.SelectInput(w, xproto.ButtonPressMask|xproto.PointerMotionMask); err != nil {
		t.Fatal(err)
	}
	if err := c.MapWindow(w); err != nil {
		t.Fatal(err)
	}
	if err := wm.GrabPointer(root, xproto.PointerMotionMask|xproto.ButtonPressMask); err != nil {
		t.Fatal(err)
	}
	s.FakeMotion(10, 10)
	s.FakeButtonPress(xproto.Button1, 0)
	if evs := drain(c); len(evs) != 0 {
		t.Errorf("client got events during active grab: %v", evs)
	}
	var wmMotion, wmPress bool
	for _, ev := range drain(wm) {
		switch ev.Type {
		case xproto.MotionNotify:
			wmMotion = true
		case xproto.ButtonPress:
			wmPress = true
		}
	}
	if !wmMotion || !wmPress {
		t.Errorf("wm motion=%v press=%v", wmMotion, wmPress)
	}
	wm.UngrabPointer()
	s.FakeButtonRelease(xproto.Button1, 0)
	s.FakeMotion(20, 20)
	found := false
	for _, ev := range drain(c) {
		if ev.Type == xproto.MotionNotify {
			found = true
		}
	}
	if !found {
		t.Error("client got no motion after ungrab")
	}
}

func TestKeyGrabAndDelivery(t *testing.T) {
	s, c := newTestServer(t)
	wm := s.Connect("wm")
	root := s.Screens()[0].Root
	w := mustCreate(t, c, root, xproto.Rect{Width: 100, Height: 100})
	if err := c.SelectInput(w, xproto.KeyPressMask); err != nil {
		t.Fatal(err)
	}
	if err := c.MapWindow(w); err != nil {
		t.Fatal(err)
	}
	if err := wm.GrabKey(root, xproto.StringToKeysym("F1"), 0); err != nil {
		t.Fatal(err)
	}
	s.FakeMotion(50, 50)
	drain(c)
	s.FakeKeyPress("F1", 0)
	if evs := drain(c); len(evs) != 0 {
		t.Errorf("client got grabbed key: %v", evs)
	}
	var got bool
	for _, ev := range drain(wm) {
		if ev.Type == xproto.KeyPress && ev.Keysym == xproto.StringToKeysym("F1") {
			got = true
		}
	}
	if !got {
		t.Error("wm missed grabbed key")
	}
	// Ungrabbed key goes to the pointer window.
	s.FakeKeyPress("a", 0)
	got = false
	for _, ev := range drain(c) {
		if ev.Type == xproto.KeyPress && ev.Keysym == xproto.StringToKeysym("a") {
			got = true
		}
	}
	if !got {
		t.Error("client missed plain key")
	}
}

func TestSendEventSynthetic(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	w := mustCreate(t, c, root, xproto.Rect{Width: 10, Height: 10})
	if err := c.SelectInput(w, xproto.StructureNotifyMask); err != nil {
		t.Fatal(err)
	}
	// Synthetic ConfigureNotify as the ICCCM requires of WMs.
	err := c.SendEvent(w, xproto.StructureNotifyMask, xproto.Event{
		Type: xproto.ConfigureNotify, GX: 300, GY: 400, Width: 10, Height: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	evs := drain(c)
	if len(evs) != 1 || evs[0].Type != xproto.ConfigureNotify {
		t.Fatalf("got %v", evs)
	}
	if !evs[0].SendEvent {
		t.Error("synthetic event not flagged SendEvent")
	}
	if evs[0].GX != 300 || evs[0].GY != 400 {
		t.Errorf("coords (%d,%d), want (300,400)", evs[0].GX, evs[0].GY)
	}
}

func TestSendEventToOwner(t *testing.T) {
	s, _ := newTestServer(t)
	client := s.Connect("client")
	wm := s.Connect("wm")
	root := s.Screens()[0].Root
	w, err := client.CreateWindow(root, xproto.Rect{Width: 10, Height: 10}, 0, WindowAttributes{})
	if err != nil {
		t.Fatal(err)
	}
	del := wm.InternAtom("WM_DELETE_WINDOW")
	if err := wm.SendEvent(w, 0, xproto.Event{
		Type: xproto.ClientMessage, MessageType: wm.InternAtom("WM_PROTOCOLS"),
		Format: 32, Data: [20]byte{byte(del)},
	}); err != nil {
		t.Fatal(err)
	}
	evs := drain(client)
	if len(evs) != 1 || evs[0].Type != xproto.ClientMessage {
		t.Fatalf("owner got %v, want one ClientMessage", evs)
	}
}

func TestSaveSetRescuesWindowsOnClose(t *testing.T) {
	s, _ := newTestServer(t)
	client := s.Connect("client")
	wm := s.Connect("wm")
	root := s.Screens()[0].Root
	cw, err := client.CreateWindow(root, xproto.Rect{X: 7, Y: 9, Width: 50, Height: 50}, 0, WindowAttributes{})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.MapWindow(cw); err != nil {
		t.Fatal(err)
	}
	// WM frames the client and puts it in its save-set.
	frame, err := wm.CreateWindow(root, xproto.Rect{X: 100, Y: 100, Width: 60, Height: 80}, 0, WindowAttributes{})
	if err != nil {
		t.Fatal(err)
	}
	if err := wm.MapWindow(frame); err != nil {
		t.Fatal(err)
	}
	if err := wm.ReparentWindow(cw, frame, 5, 25); err != nil {
		t.Fatal(err)
	}
	if err := wm.ChangeSaveSet(cw, true); err != nil {
		t.Fatal(err)
	}
	// WM dies.
	wm.Close()
	// Client window must survive, reparented back to root and mapped.
	_, parent, _, err := client.QueryTree(cw)
	if err != nil {
		t.Fatalf("client window destroyed with WM: %v", err)
	}
	if parent != root {
		t.Errorf("parent after WM death = %v, want root %v", parent, root)
	}
	attrs, _ := client.GetWindowAttributes(cw)
	if attrs.MapState != xproto.IsViewable {
		t.Error("rescued window not mapped")
	}
	// The frame (owned by the WM) must be gone.
	if _, err := client.GetGeometry(frame); err == nil {
		t.Error("WM-owned frame survived WM close")
	}
}

func TestCloseDestroysOwnedWindows(t *testing.T) {
	s, _ := newTestServer(t)
	client := s.Connect("client")
	other := s.Connect("other")
	root := s.Screens()[0].Root
	w, err := client.CreateWindow(root, xproto.Rect{Width: 10, Height: 10}, 0, WindowAttributes{})
	if err != nil {
		t.Fatal(err)
	}
	client.Close()
	if _, err := other.GetGeometry(w); err == nil {
		t.Error("window survived owner close without save-set")
	}
}

func TestShapeRoundTrip(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	w := mustCreate(t, c, root, xproto.Rect{Width: 100, Height: 100})
	rects := []xproto.Rect{{X: 0, Y: 0, Width: 50, Height: 100}, {X: 50, Y: 25, Width: 50, Height: 50}}
	if err := c.ShapeCombineRectangles(w, rects); err != nil {
		t.Fatal(err)
	}
	shaped, got, err := c.ShapeQuery(w)
	if err != nil {
		t.Fatal(err)
	}
	if !shaped || len(got) != 2 {
		t.Fatalf("shaped=%v rects=%v", shaped, got)
	}
	if err := c.ShapeCombineRectangles(w, nil); err != nil {
		t.Fatal(err)
	}
	shaped, _, _ = c.ShapeQuery(w)
	if shaped {
		t.Error("shape not reset by empty rect list")
	}
}

func TestShapeNotifyDelivery(t *testing.T) {
	s, c := newTestServer(t)
	wm := s.Connect("wm")
	root := s.Screens()[0].Root
	w := mustCreate(t, c, root, xproto.Rect{Width: 100, Height: 100})
	if err := wm.ShapeSelectInput(w); err != nil {
		t.Fatal(err)
	}
	if err := c.ShapeCombineRectangles(w, []xproto.Rect{{Width: 10, Height: 10}}); err != nil {
		t.Fatal(err)
	}
	var got bool
	for _, ev := range drain(wm) {
		if ev.Type == xproto.ShapeNotify && ev.Window == w && ev.Shaped {
			got = true
		}
	}
	if !got {
		t.Error("no ShapeNotify delivered")
	}
}

func TestShapedHitTesting(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	w := mustCreate(t, c, root, xproto.Rect{X: 0, Y: 0, Width: 100, Height: 100})
	// Only the left half is part of the shape.
	if err := c.ShapeCombineRectangles(w, []xproto.Rect{{X: 0, Y: 0, Width: 50, Height: 100}}); err != nil {
		t.Fatal(err)
	}
	if err := c.MapWindow(w); err != nil {
		t.Fatal(err)
	}
	if got := c.WindowAt(0, 25, 50); got != w {
		t.Errorf("point in shape: WindowAt = %v, want %v", got, w)
	}
	if got := c.WindowAt(0, 75, 50); got == w {
		t.Error("point outside shape still hit the window")
	}
}

func TestQueryPointerChild(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	w := mustCreate(t, c, root, xproto.Rect{X: 10, Y: 10, Width: 100, Height: 100})
	if err := c.MapWindow(w); err != nil {
		t.Fatal(err)
	}
	s.FakeMotion(50, 50)
	info := c.QueryPointer()
	if info.Child != w {
		t.Errorf("pointer child = %v, want %v", info.Child, w)
	}
	if info.RootX != 50 || info.RootY != 50 {
		t.Errorf("pointer at (%d,%d)", info.RootX, info.RootY)
	}
}

func TestInputFocus(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	w := mustCreate(t, c, root, xproto.Rect{Width: 10, Height: 10})
	if err := c.SelectInput(w, xproto.FocusChangeMask); err != nil {
		t.Fatal(err)
	}
	if err := c.SetInputFocus(w); err != nil {
		t.Fatal(err)
	}
	if got := c.GetInputFocus(); got != w {
		t.Errorf("focus = %v, want %v", got, w)
	}
	var focusIn bool
	for _, ev := range drain(c) {
		if ev.Type == xproto.FocusIn && ev.Window == w {
			focusIn = true
		}
	}
	if !focusIn {
		t.Error("no FocusIn event")
	}
	// Destroying the focus window resets focus.
	if err := c.DestroyWindow(w); err != nil {
		t.Fatal(err)
	}
	if got := c.GetInputFocus(); got != xproto.PointerRoot {
		t.Errorf("focus after destroy = %v, want PointerRoot", got)
	}
}

func TestTimestampsMonotonic(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	if err := c.SelectInput(root, xproto.SubstructureNotifyMask); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustCreate(t, c, root, xproto.Rect{Width: 10, Height: 10})
	}
	var last xproto.Timestamp
	for _, ev := range drain(c) {
		if ev.Time <= last {
			t.Fatalf("timestamp went backwards: %d after %d", ev.Time, last)
		}
		last = ev.Time
	}
}

func TestKillClient(t *testing.T) {
	s, _ := newTestServer(t)
	victim := s.Connect("victim")
	killer := s.Connect("killer")
	root := s.Screens()[0].Root
	w, err := victim.CreateWindow(root, xproto.Rect{Width: 10, Height: 10}, 0, WindowAttributes{})
	if err != nil {
		t.Fatal(err)
	}
	if err := killer.KillClient(w); err != nil {
		t.Fatal(err)
	}
	if !victim.Closed() {
		t.Error("victim connection still open")
	}
	if s.NumConns() != 2 { // test conn from newTestServer + killer
		t.Errorf("NumConns = %d, want 2", s.NumConns())
	}
}

// Property-based test: rectangle intersection is commutative and
// contained within both operands.
func TestRectIntersectProperties(t *testing.T) {
	f := func(ax, ay int16, aw, ah uint8, bx, by int16, bw, bh uint8) bool {
		a := xproto.Rect{X: int(ax), Y: int(ay), Width: int(aw) + 1, Height: int(ah) + 1}
		b := xproto.Rect{X: int(bx), Y: int(by), Width: int(bw) + 1, Height: int(bh) + 1}
		i1, ok1 := a.Intersect(b)
		i2, ok2 := b.Intersect(a)
		if ok1 != ok2 || i1 != i2 {
			return false
		}
		if !ok1 {
			return true
		}
		// Intersection is inside both.
		inA := i1.X >= a.X && i1.Y >= a.Y && i1.X+i1.Width <= a.X+a.Width && i1.Y+i1.Height <= a.Y+a.Height
		inB := i1.X >= b.X && i1.Y >= b.Y && i1.X+i1.Width <= b.X+b.Width && i1.Y+i1.Height <= b.Y+b.Height
		return inA && inB && !i1.Empty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property-based test: after any sequence of raise/lower operations, the
// children list is a permutation of the original set.
func TestStackingPermutationProperty(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	const n = 6
	ids := make([]xproto.XID, n)
	for i := range ids {
		ids[i] = mustCreate(t, c, root, xproto.Rect{Width: 10, Height: 10})
	}
	f := func(ops []uint8) bool {
		for _, op := range ops {
			idx := int(op) % n
			if op%2 == 0 {
				if err := c.RaiseWindow(ids[idx]); err != nil {
					return false
				}
			} else {
				if err := c.LowerWindow(ids[idx]); err != nil {
					return false
				}
			}
		}
		_, _, children, err := c.QueryTree(root)
		if err != nil || len(children) != n {
			return false
		}
		seen := make(map[xproto.XID]bool, n)
		for _, ch := range children {
			seen[ch] = true
		}
		for _, id := range ids {
			if !seen[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: root coordinates are the sum of ancestor offsets for
// arbitrary nesting chains.
func TestRootCoordsChainProperty(t *testing.T) {
	f := func(offsets []int8) bool {
		if len(offsets) == 0 || len(offsets) > 8 {
			return true
		}
		s := NewServer()
		c := s.Connect("t")
		parent := s.Screens()[0].Root
		wantX, wantY := 0, 0
		var leaf xproto.XID
		for _, off := range offsets {
			x, y := int(off), int(-off)
			id, err := c.CreateWindow(parent, xproto.Rect{X: x, Y: y, Width: 500, Height: 500}, 0, WindowAttributes{})
			if err != nil {
				return false
			}
			wantX += x
			wantY += y
			parent, leaf = id, id
		}
		root := s.Screens()[0].Root
		gx, gy, _, err := c.TranslateCoordinates(leaf, root, 0, 0)
		if err != nil {
			return false
		}
		return gx == wantX && gy == wantY
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestConcurrentReadersDuringWrites exercises lock-free reads under the
// race detector: read-only queries from several goroutines interleaved
// with structural writes must stay coherent.
func TestConcurrentReadersDuringWrites(t *testing.T) {
	s := NewServer()
	c := s.Connect("writer")
	root := s.Screens()[0].Root
	win, err := c.CreateWindow(root, xproto.Rect{Width: 60, Height: 60}, 0, WindowAttributes{})
	if err != nil {
		t.Fatalf("CreateWindow: %v", err)
	}
	if err := c.MapWindow(win); err != nil {
		t.Fatalf("MapWindow: %v", err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := s.Connect("reader")
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := r.GetGeometry(win); err != nil {
					t.Errorf("GetGeometry: %v", err)
					return
				}
				if _, _, _, err := r.QueryTree(root); err != nil {
					t.Errorf("QueryTree: %v", err)
					return
				}
				if _, _, err := r.GetProperty(win, 1); err != nil {
					t.Errorf("GetProperty: %v", err)
					return
				}
				// Mover vs translate: win (60x60) sits at (i, i) for
				// some i in [0, 500) and covers (100, 100) exactly when
				// 41 <= i <= 100; the 10x10 windows at (0, 0) never do.
				// So the child is win or None, never a stale answer.
				if _, _, child, err := r.TranslateCoordinates(root, root, 100, 100); err != nil {
					t.Errorf("TranslateCoordinates: %v", err)
					return
				} else if child != xproto.None && child != win {
					t.Errorf("TranslateCoordinates child = 0x%x, want win 0x%x or None", uint32(child), uint32(win))
					return
				}
				// No position of win covers (600, 600).
				if _, _, child, err := r.TranslateCoordinates(root, root, 600, 600); err != nil || child != xproto.None {
					t.Errorf("TranslateCoordinates(600, 600) = child 0x%x, err %v; want None", uint32(child), err)
					return
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		if err := c.MoveWindow(win, i, i); err != nil {
			t.Fatalf("MoveWindow: %v", err)
		}
		w, err := c.CreateWindow(root, xproto.Rect{Width: 10, Height: 10}, 0, WindowAttributes{})
		if err != nil {
			t.Fatalf("CreateWindow: %v", err)
		}
		if err := c.MapWindow(w); err != nil {
			t.Fatalf("MapWindow: %v", err)
		}
		if err := c.DestroyWindow(w); err != nil {
			t.Fatalf("DestroyWindow: %v", err)
		}
	}
	close(stop)
	wg.Wait()
}
