package xserver

import (
	"testing"

	"repro/internal/xproto"
)

// tailClear fails the test unless every slot of tbl past its length is
// nil: a stale pointer there keeps a removed grab, and through it the
// grabbing Conn and its event queue, reachable.
func tailClear[T any](t *testing.T, what string, tbl []*T) {
	t.Helper()
	for i, g := range tbl[len(tbl):cap(tbl)] {
		if g != nil {
			t.Errorf("%s: slot %d past len %d still holds a removed grab", what, len(tbl)+i, len(tbl))
		}
	}
}

// TestCloseClearsGrabTableTail pins that closing a connection removes
// its passive grabs without leaving them in the table's backing
// arrays.
func TestCloseClearsGrabTableTail(t *testing.T) {
	s := NewServer()
	root := s.Screens()[0].Root
	a, b := s.Connect("a"), s.Connect("b")
	for i, c := range []*Conn{a, a, b} {
		if err := c.GrabButton(root, i+1, 0, xproto.ButtonPressMask); err != nil {
			t.Fatal(err)
		}
		if err := c.GrabKey(root, "F"+string(rune('1'+i)), 0); err != nil {
			t.Fatal(err)
		}
	}

	a.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.grabs) != 2 || s.grabs[0].conn != b || s.grabs[1].conn != b {
		t.Errorf("grabs after close = %d, want only b's button and key", len(s.grabs))
	}
	tailClear(t, "grabs", s.grabs)
}

// TestUngrabClearsGrabTableTail pins the same for explicit ungrabs.
func TestUngrabClearsGrabTableTail(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	for button := 1; button <= 3; button++ {
		if err := c.GrabButton(root, button, 0, xproto.ButtonPressMask); err != nil {
			t.Fatal(err)
		}
	}
	for _, keysym := range []string{"F1", "F2", "F3"} {
		if err := c.GrabKey(root, keysym, 0); err != nil {
			t.Fatal(err)
		}
	}

	c.UngrabButton(root, 1, 0)
	c.UngrabKey(root, "F1", 0)
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.grabs) != 4 {
		t.Errorf("after ungrab: %d grabs, want 2 button and 2 key grabs", len(s.grabs))
	}
	tailClear(t, "grabs", s.grabs)
}

// TestGrabsDieWithTheirWindow pins X's rule that destroying a window
// drops its passive grabs and releases an active grab on it: a dead
// active grab would otherwise swallow every later pointer event.
func TestGrabsDieWithTheirWindow(t *testing.T) {
	s, c := newTestServer(t)
	watcher := s.Connect("watcher")
	root := s.Screens()[0].Root
	w := mustCreate(t, c, root, xproto.Rect{Width: 100, Height: 100})
	if err := c.MapWindow(w); err != nil {
		t.Fatal(err)
	}
	for button := 1; button <= 3; button++ {
		if err := c.GrabButton(w, button, 0, xproto.ButtonPressMask); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.GrabKey(w, "F1", 0); err != nil {
		t.Fatal(err)
	}
	if err := c.GrabPointer(w, xproto.PointerMotionMask); err != nil {
		t.Fatal(err)
	}
	if err := watcher.SelectInput(root, xproto.PointerMotionMask); err != nil {
		t.Fatal(err)
	}

	if err := c.DestroyWindow(w); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	grabs, active := len(s.grabs), s.activeGrab.conn != nil
	tailClear(t, "grabs", s.grabs)
	s.mu.Unlock()
	if grabs != 0 || active {
		t.Errorf("after destroy: %d passive grabs, active grab held %v; want none", grabs, active)
	}

	s.FakeMotion(150, 150)
	motion := 0
	for _, ev := range drain(watcher) {
		if ev.Type == xproto.MotionNotify {
			motion++
		}
	}
	if motion == 0 {
		t.Error("root motion selector got no event after the grab window died")
	}
}
