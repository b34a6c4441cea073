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
// its passive grabs without leaving them in the tables' backing
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
	if len(s.buttonGrabs) != 1 || s.buttonGrabs[0].conn != b {
		t.Errorf("button grabs after close = %d, want only b's", len(s.buttonGrabs))
	}
	if len(s.keyGrabs) != 1 || s.keyGrabs[0].conn != b {
		t.Errorf("key grabs after close = %d, want only b's", len(s.keyGrabs))
	}
	tailClear(t, "buttonGrabs", s.buttonGrabs)
	tailClear(t, "keyGrabs", s.keyGrabs)
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
	if len(s.buttonGrabs) != 2 || len(s.keyGrabs) != 2 {
		t.Errorf("after ungrab: %d button and %d key grabs, want 2 and 2", len(s.buttonGrabs), len(s.keyGrabs))
	}
	tailClear(t, "buttonGrabs", s.buttonGrabs)
	tailClear(t, "keyGrabs", s.keyGrabs)
}
