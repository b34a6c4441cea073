package xserver

import (
	"errors"
	"testing"

	"repro/internal/xproto"
)

func TestPropertyFormats16And32(t *testing.T) {
	s, c := newTestServer(t)
	w := mustCreate(t, c, s.Screens()[0].Root, xproto.Rect{Width: 10, Height: 10})
	card := c.InternAtom("CARDINAL")
	for _, format := range []int{16, 32} {
		prop := c.InternAtom("P" + string(rune('0'+format)))
		data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
		if err := c.ChangeProperty(w, prop, card, format, xproto.PropModeReplace, data); err != nil {
			t.Fatalf("format %d: %v", format, err)
		}
		p, ok, _ := c.GetProperty(w, prop)
		if !ok || p.Format != format || len(p.Data) != 8 {
			t.Errorf("format %d round trip: %+v ok=%v", format, p, ok)
		}
	}
	if err := c.ChangeProperty(w, card, card, 12, xproto.PropModeReplace, nil); err == nil {
		t.Error("bogus format accepted")
	}
}

func TestListProperties(t *testing.T) {
	s, c := newTestServer(t)
	w := mustCreate(t, c, s.Screens()[0].Root, xproto.Rect{Width: 10, Height: 10})
	str := c.InternAtom("STRING")
	for _, name := range []string{"WM_NAME", "WM_CLASS", "WM_COMMAND"} {
		if err := c.ChangeProperty(w, c.InternAtom(name), str, 8, xproto.PropModeReplace, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	atoms, err := c.ListProperties(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(atoms) != 3 {
		t.Errorf("ListProperties = %d entries, want 3", len(atoms))
	}
}

func TestGetPropertyCopiesData(t *testing.T) {
	s, c := newTestServer(t)
	w := mustCreate(t, c, s.Screens()[0].Root, xproto.Rect{Width: 10, Height: 10})
	a := c.InternAtom("P")
	str := c.InternAtom("STRING")
	if err := c.ChangeProperty(w, a, str, 8, xproto.PropModeReplace, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	p1, _, _ := c.GetProperty(w, a)
	p1.Data[0] = 'X' // mutating the returned copy…
	p2, _, _ := c.GetProperty(w, a)
	if string(p2.Data) != "abc" { // …must not affect the stored value
		t.Errorf("property data aliased: %q", p2.Data)
	}
}

func TestSendEventToBadWindow(t *testing.T) {
	_, c := newTestServer(t)
	var xe *xproto.XError
	err := c.SendEvent(0xdead, 0, xproto.Event{Type: xproto.ClientMessage, Format: 32})
	if !errors.As(err, &xe) || xe.Code != xproto.BadWindow {
		t.Errorf("SendEvent to a bad window = %v, want BadWindow", err)
	}
}

// TestSendEventBadValue pins X.Org's two SendEvent checks: an event
// type outside the core and extension range, and a ClientMessage whose
// format is not 8, 16 or 32, are BadValue from SendEvent, reach the
// error handler once, and deliver nothing.
func TestSendEventBadValue(t *testing.T) {
	s, c := newTestServer(t)
	owner := s.Connect("owner")
	w := mustCreate(t, owner, s.Screens()[0].Root, xproto.Rect{Width: 10, Height: 10})
	for _, conn := range []*Conn{owner, c} {
		if err := conn.SelectInput(w, xproto.StructureNotifyMask); err != nil {
			t.Fatal(err)
		}
	}
	var noted []*xproto.XError
	c.SetErrorHandler(func(xe *xproto.XError) { noted = append(noted, xe) })
	for _, tc := range []struct {
		name string
		mask xproto.EventMask
		ev   xproto.Event
	}{
		{"ClientMessage format 0", 0, xproto.Event{Type: xproto.ClientMessage}},
		{"ClientMessage format 24", xproto.StructureNotifyMask, xproto.Event{Type: xproto.ClientMessage, Format: 24}},
		{"event type 0", xproto.StructureNotifyMask, xproto.Event{}},
		{"event type 1", 0, xproto.Event{Type: xproto.KeyPress - 1}},
		{"event type past ShapeNotify", xproto.StructureNotifyMask, xproto.Event{Type: xproto.ShapeNotify + 1}},
	} {
		noted = nil
		drain(owner)
		drain(c)
		var xe *xproto.XError
		if err := c.SendEvent(w, tc.mask, tc.ev); !errors.As(err, &xe) ||
			xe.Code != xproto.BadValue || xe.Major != xproto.MajorSendEvent {
			t.Errorf("%s: SendEvent = %v, want BadValue from SendEvent", tc.name, err)
		}
		if len(noted) != 1 || noted[0] != xe {
			t.Errorf("%s: error handler saw %v, want the one error", tc.name, noted)
		}
		for _, conn := range []*Conn{owner, c} {
			if evs := drain(conn); len(evs) != 0 {
				t.Errorf("%s: connection %p received %v", tc.name, conn, evs)
			}
		}
	}
}

func TestButtonGrabConflict(t *testing.T) {
	s, _ := newTestServer(t)
	a := s.Connect("a")
	b := s.Connect("b")
	root := s.Screens()[0].Root
	if err := a.GrabButton(root, 1, xproto.Mod1Mask, xproto.ButtonPressMask); err != nil {
		t.Fatal(err)
	}
	if err := b.GrabButton(root, 1, xproto.Mod1Mask, xproto.ButtonPressMask); err == nil {
		t.Error("conflicting grab accepted")
	}
	// The same connection may re-grab (updates the event mask).
	if err := a.GrabButton(root, 1, xproto.Mod1Mask, xproto.ButtonReleaseMask); err != nil {
		t.Errorf("re-grab by owner rejected: %v", err)
	}
	// A different modifier combination is a different grab.
	if err := b.GrabButton(root, 1, xproto.ControlMask, xproto.ButtonPressMask); err != nil {
		t.Errorf("distinct grab rejected: %v", err)
	}
}

func TestUngrabButton(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	w := mustCreate(t, c, root, xproto.Rect{Width: 100, Height: 100})
	if err := c.SelectInput(w, xproto.ButtonPressMask); err != nil {
		t.Fatal(err)
	}
	if err := c.MapWindow(w); err != nil {
		t.Fatal(err)
	}
	wm := s.Connect("wm")
	if err := wm.GrabButton(root, 1, 0, xproto.ButtonPressMask|xproto.ButtonReleaseMask); err != nil {
		t.Fatal(err)
	}
	wm.UngrabButton(root, 1, 0)
	s.FakeMotion(50, 50)
	drain(c)
	s.FakeButtonPress(1, 0)
	s.FakeButtonRelease(1, 0)
	if evs := drain(wm); len(evs) != 0 {
		t.Errorf("ungrabbed connection still got events: %v", evs)
	}
	found := false
	for _, ev := range drain(c) {
		if ev.Type == xproto.ButtonPress {
			found = true
		}
	}
	if !found {
		t.Error("client missed the press after ungrab")
	}
}

func TestAnyModifierAnyButtonGrab(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	w := mustCreate(t, c, root, xproto.Rect{Width: 100, Height: 100})
	if err := c.MapWindow(w); err != nil {
		t.Fatal(err)
	}
	wm := s.Connect("wm")
	if err := wm.GrabButton(root, xproto.AnyButton, xproto.AnyModifier,
		xproto.ButtonPressMask|xproto.ButtonReleaseMask); err != nil {
		t.Fatal(err)
	}
	s.FakeMotion(50, 50)
	for _, btn := range []int{1, 2, 3} {
		for _, mods := range []uint16{0, xproto.ControlMask, xproto.Mod1Mask | xproto.ShiftMask} {
			s.FakeButtonPress(btn, mods)
			s.FakeButtonRelease(btn, mods)
		}
	}
	presses := 0
	for _, ev := range drain(wm) {
		if ev.Type == xproto.ButtonPress {
			presses++
		}
	}
	if presses != 9 {
		t.Errorf("any/any grab caught %d presses, want 9", presses)
	}
}

func TestDeepestGrabWindowWins(t *testing.T) {
	s, _ := newTestServer(t)
	outer := s.Connect("outer")
	inner := s.Connect("inner")
	root := s.Screens()[0].Root
	frame, err := outer.CreateWindow(root, xproto.Rect{Width: 200, Height: 200}, 0, WindowAttributes{})
	if err != nil {
		t.Fatal(err)
	}
	child, err := outer.CreateWindow(frame, xproto.Rect{X: 50, Y: 50, Width: 100, Height: 100}, 0, WindowAttributes{})
	if err != nil {
		t.Fatal(err)
	}
	if err := outer.MapWindow(frame); err != nil {
		t.Fatal(err)
	}
	if err := outer.MapWindow(child); err != nil {
		t.Fatal(err)
	}
	if err := outer.GrabButton(root, 1, 0, xproto.ButtonPressMask|xproto.ButtonReleaseMask); err != nil {
		t.Fatal(err)
	}
	if err := inner.GrabButton(child, 1, 0, xproto.ButtonPressMask|xproto.ButtonReleaseMask); err != nil {
		t.Fatal(err)
	}
	s.FakeMotion(100, 100) // inside child
	s.FakeButtonPress(1, 0)
	s.FakeButtonRelease(1, 0)
	if evs := drain(inner); len(evs) == 0 {
		t.Error("deeper grab window lost to the root grab")
	}
	for _, ev := range drain(outer) {
		if ev.Type == xproto.ButtonPress {
			t.Error("root grab fired despite a deeper grab")
		}
	}
}

func TestWarpPointerGeneratesCrossings(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	w := mustCreate(t, c, root, xproto.Rect{X: 100, Y: 100, Width: 50, Height: 50})
	if err := c.SelectInput(w, xproto.EnterWindowMask); err != nil {
		t.Fatal(err)
	}
	if err := c.MapWindow(w); err != nil {
		t.Fatal(err)
	}
	c.WarpPointer(120, 120)
	entered := false
	for _, ev := range drain(c) {
		if ev.Type == xproto.EnterNotify {
			entered = true
		}
	}
	if !entered {
		t.Error("WarpPointer produced no EnterNotify")
	}
}

func TestActiveGrabMotionCoordinates(t *testing.T) {
	s, _ := newTestServer(t)
	wm := s.Connect("wm")
	root := s.Screens()[0].Root
	grabWin, err := wm.CreateWindow(root, xproto.Rect{X: 100, Y: 100, Width: 50, Height: 50}, 0, WindowAttributes{})
	if err != nil {
		t.Fatal(err)
	}
	if err := wm.MapWindow(grabWin); err != nil {
		t.Fatal(err)
	}
	if err := wm.GrabPointer(grabWin, xproto.PointerMotionMask); err != nil {
		t.Fatal(err)
	}
	s.FakeMotion(130, 140)
	var got *xproto.Event
	for _, ev := range drain(wm) {
		if ev.Type == xproto.MotionNotify {
			e := ev
			got = &e
		}
	}
	if got == nil {
		t.Fatal("no motion during grab")
	}
	if got.Window != grabWin {
		t.Errorf("motion window = %v, want grab window", got.Window)
	}
	if got.X != 30 || got.Y != 40 {
		t.Errorf("grab-relative coords (%d,%d), want (30,40)", got.X, got.Y)
	}
	if got.RootX != 130 || got.RootY != 140 {
		t.Errorf("root coords (%d,%d)", got.RootX, got.RootY)
	}
	wm.UngrabPointer()
}

func TestGrabPointerConflict(t *testing.T) {
	s, _ := newTestServer(t)
	a := s.Connect("a")
	b := s.Connect("b")
	root := s.Screens()[0].Root
	if err := a.GrabPointer(root, xproto.PointerMotionMask); err != nil {
		t.Fatal(err)
	}
	if err := b.GrabPointer(root, xproto.PointerMotionMask); err == nil {
		t.Error("second active grab accepted")
	}
	a.UngrabPointer()
	if err := b.GrabPointer(root, xproto.PointerMotionMask); err != nil {
		t.Errorf("grab after release rejected: %v", err)
	}
}

func TestTranslateCoordinatesBadWindow(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	if _, _, _, err := c.TranslateCoordinates(0xbad, root, 0, 0); err == nil {
		t.Error("bad src accepted")
	}
	if _, _, _, err := c.TranslateCoordinates(root, 0xbad, 0, 0); err == nil {
		t.Error("bad dst accepted")
	}
}

func TestStackingTopIfBottomIf(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	a := mustCreate(t, c, root, xproto.Rect{Width: 10, Height: 10})
	b := mustCreate(t, c, root, xproto.Rect{Width: 10, Height: 10})
	if err := c.ConfigureWindow(a, xproto.WindowChanges{Mask: xproto.CWStackMode, StackMode: xproto.TopIf}); err != nil {
		t.Fatal(err)
	}
	_, _, children, _ := c.QueryTree(root)
	if children[len(children)-1] != a {
		t.Error("TopIf did not raise")
	}
	if err := c.ConfigureWindow(a, xproto.WindowChanges{Mask: xproto.CWStackMode, StackMode: xproto.BottomIf}); err != nil {
		t.Fatal(err)
	}
	_, _, children, _ = c.QueryTree(root)
	if children[0] != a {
		t.Error("BottomIf did not lower")
	}
	_ = b
}

func TestStackingBelowSibling(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	a := mustCreate(t, c, root, xproto.Rect{Width: 10, Height: 10})
	b := mustCreate(t, c, root, xproto.Rect{Width: 10, Height: 10})
	d := mustCreate(t, c, root, xproto.Rect{Width: 10, Height: 10})
	err := c.ConfigureWindow(d, xproto.WindowChanges{
		Mask: xproto.CWStackMode | xproto.CWSibling, Sibling: a, StackMode: xproto.Below,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _, children, _ := c.QueryTree(root)
	want := []xproto.XID{d, a, b}
	for i := range want {
		if children[i] != want[i] {
			t.Fatalf("stacking %v, want %v", children, want)
		}
	}
}

func TestSnapshotStructure(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	parent := mustCreate(t, c, root, xproto.Rect{X: 5, Y: 6, Width: 100, Height: 80})
	child := mustCreate(t, c, parent, xproto.Rect{X: 1, Y: 2, Width: 30, Height: 20})
	if err := c.SetWindowLabel(child, "kid"); err != nil {
		t.Fatal(err)
	}
	if err := c.MapWindow(parent); err != nil {
		t.Fatal(err)
	}
	node, err := c.Snapshot(parent)
	if err != nil {
		t.Fatal(err)
	}
	if node.Rect.X != 5 || !node.Mapped || len(node.Children) != 1 {
		t.Errorf("snapshot: %+v", node)
	}
	kid := node.Children[0]
	if kid.Label != "kid" || kid.Mapped || kid.Rect.Width != 30 {
		t.Errorf("child snapshot: %+v", kid)
	}
	if _, err := c.Snapshot(0xbad); err == nil {
		t.Error("snapshot of bad window accepted")
	}
}

func TestUnmapUnviewableDescendant(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	parent := mustCreate(t, c, root, xproto.Rect{Width: 100, Height: 100})
	child := mustCreate(t, c, parent, xproto.Rect{Width: 50, Height: 50})
	if err := c.MapWindow(child); err != nil {
		t.Fatal(err)
	}
	attrs, _ := c.GetWindowAttributes(child)
	if attrs.MapState != xproto.IsUnviewable {
		t.Errorf("mapped child of unmapped parent = %v, want IsUnviewable", attrs.MapState)
	}
}

func TestPointerWindowUpdatesOnUnmap(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	w := mustCreate(t, c, root, xproto.Rect{X: 0, Y: 0, Width: 100, Height: 100})
	if err := c.SelectInput(w, xproto.LeaveWindowMask); err != nil {
		t.Fatal(err)
	}
	if err := c.MapWindow(w); err != nil {
		t.Fatal(err)
	}
	s.FakeMotion(50, 50)
	drain(c)
	// Unmapping the window under the pointer yields a LeaveNotify.
	if err := c.UnmapWindow(w); err != nil {
		t.Fatal(err)
	}
	left := false
	for _, ev := range drain(c) {
		if ev.Type == xproto.LeaveNotify {
			left = true
		}
	}
	if !left {
		t.Error("no LeaveNotify when the window under the pointer unmapped")
	}
}

func TestMultiScreenPointer(t *testing.T) {
	s := NewServer(ScreenSpec{Width: 800, Height: 600}, ScreenSpec{Width: 640, Height: 480})
	c := s.Connect("t")
	s.FakeSetScreen(1)
	s.FakeMotion(10, 10)
	info := c.QueryPointer()
	if info.Screen != 1 {
		t.Errorf("pointer screen = %d", info.Screen)
	}
	if info.Root != s.Screens()[1].Root {
		t.Error("pointer root mismatch")
	}
	s.FakeSetScreen(99) // out of range: ignored
	if c.QueryPointer().Screen != 1 {
		t.Error("invalid screen change applied")
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	s := NewServer()
	c := s.Connect("t")
	c.Close()
	c.Close() // second close must not panic or double-free
	if !c.Closed() {
		t.Error("not closed")
	}
	if s.NumConns() != 0 {
		t.Errorf("NumConns = %d", s.NumConns())
	}
}

func TestWaitEventReturnsFalseOnClose(t *testing.T) {
	s := NewServer()
	c := s.Connect("t")
	done := make(chan bool)
	go func() {
		_, ok := c.WaitEvent()
		done <- ok
	}()
	c.Close()
	if ok := <-done; ok {
		t.Error("WaitEvent returned an event from a closed connection")
	}
}

func TestRequestsOnDestroyedWindowFail(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	w := mustCreate(t, c, root, xproto.Rect{Width: 10, Height: 10})
	if err := c.DestroyWindow(w); err != nil {
		t.Fatal(err)
	}
	if err := c.MapWindow(w); err == nil {
		t.Error("MapWindow on destroyed window accepted")
	}
	if err := c.MoveWindow(w, 1, 1); err == nil {
		t.Error("MoveWindow on destroyed window accepted")
	}
	if err := c.ChangeProperty(w, c.InternAtom("X"), c.InternAtom("STRING"), 8, xproto.PropModeReplace, nil); err == nil {
		t.Error("ChangeProperty on destroyed window accepted")
	}
	if _, err := c.CreateWindow(w, xproto.Rect{Width: 5, Height: 5}, 0, WindowAttributes{}); err == nil {
		t.Error("CreateWindow under destroyed parent accepted")
	}
}

func TestConfigureRejectsZeroSize(t *testing.T) {
	s, c := newTestServer(t)
	w := mustCreate(t, c, s.Screens()[0].Root, xproto.Rect{Width: 10, Height: 10})
	if err := c.ResizeWindow(w, 0, 10); err == nil {
		t.Error("zero width resize accepted")
	}
	if err := c.ResizeWindow(w, 10, -5); err == nil {
		t.Error("negative height resize accepted")
	}
}
