package xserver

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/xproto"
)

// inputFixture is the tree the device-event table runs on:
//
//	root
//	├── outer (100,100 200x200), app selects every device event
//	│   └── inner (+20+30 100x100), wm selects only EnterNotify
//	└── other (600,500 100x100), side selects key events
//
// With the pointer at (150,170) the pointer window is inner; outer sees
// the pointer at (50,70) and other at (-450,-330).
type inputFixture struct {
	s              *Server
	conns          map[string]*Conn
	wins           map[string]xproto.XID
	app, wm, side  *Conn
	outer, inner   xproto.XID
	other, rootWin xproto.XID
}

func newInputFixture(t *testing.T) *inputFixture {
	t.Helper()
	s := NewServer()
	f := &inputFixture{s: s, app: s.Connect("app"), wm: s.Connect("wm"), side: s.Connect("side")}
	f.rootWin = s.Screens()[0].Root
	f.outer = mustCreate(t, f.app, f.rootWin, xproto.Rect{X: 100, Y: 100, Width: 200, Height: 200})
	f.inner = mustCreate(t, f.app, f.outer, xproto.Rect{X: 20, Y: 30, Width: 100, Height: 100})
	f.other = mustCreate(t, f.side, f.rootWin, xproto.Rect{X: 600, Y: 500, Width: 100, Height: 100})
	devMask := xproto.ButtonPressMask | xproto.ButtonReleaseMask | xproto.PointerMotionMask |
		xproto.KeyPressMask | xproto.KeyReleaseMask
	if err := f.app.SelectInput(f.outer, devMask); err != nil {
		t.Fatal(err)
	}
	if err := f.side.SelectInput(f.other, xproto.KeyPressMask|xproto.KeyReleaseMask); err != nil {
		t.Fatal(err)
	}
	// A selection of another event on the path must not stop propagation.
	if err := f.wm.SelectInput(f.inner, xproto.EnterWindowMask); err != nil {
		t.Fatal(err)
	}
	for _, w := range []xproto.XID{f.outer, f.inner, f.other} {
		if err := f.app.MapWindow(w); err != nil {
			t.Fatal(err)
		}
	}
	f.conns = map[string]*Conn{"app": f.app, "wm": f.wm, "side": f.side}
	f.wins = map[string]xproto.XID{"": xproto.None, "root": f.rootWin, "outer": f.outer, "inner": f.inner, "other": f.other}
	return f
}

// devWant is the one device event a step must deliver. An empty conn
// means no connection may receive an event of type typ.
type devWant struct {
	conn  string
	typ   xproto.EventType
	win   string
	x, y  int
	sub   string
	state uint16
}

type devStep struct {
	in   func(*Server)
	want devWant
}

func motion(x, y int) func(*Server) { return func(s *Server) { s.FakeMotion(x, y) } }
func press(b int, m uint16) func(*Server) {
	return func(s *Server) { s.FakeButtonPress(b, m) }
}
func release(b int, m uint16) func(*Server) {
	return func(s *Server) { s.FakeButtonRelease(b, m) }
}
func keyDown(k string, m uint16) func(*Server) {
	return func(s *Server) { s.FakeKeyPress(k, m) }
}
func keyUp(k string, m uint16) func(*Server) {
	return func(s *Server) { s.FakeKeyRelease(k, m) }
}

func isDeviceEvent(typ xproto.EventType) bool {
	switch typ {
	case xproto.MotionNotify, xproto.ButtonPress, xproto.ButtonRelease, xproto.KeyPress, xproto.KeyRelease:
		return true
	}
	return false
}

// TestDeviceEventDelivery pins the one X11 rule for device events:
// an active pointer grab first (pointer events only), then a passive
// grab that a press activates, then propagation from the source window
// (the pointer window, or for keys an explicit focus) to the first
// window that selected the event. Each step checks the receiving
// connection, the event window, the window-relative position, the
// subwindow, the state and that the timestamp is the one the step
// generated.
func TestDeviceEventDelivery(t *testing.T) {
	const (
		b1    = xproto.Button1Mask
		shift = xproto.ShiftMask
		ctl   = xproto.ControlMask
		mod1  = xproto.Mod1Mask
	)
	cases := []struct {
		name  string
		setup func(t *testing.T, f *inputFixture)
		steps []devStep
	}{
		{
			name: "propagation to an ancestor",
			steps: []devStep{
				{motion(150, 170), devWant{"app", xproto.MotionNotify, "outer", 50, 70, "", 0}},
				{press(1, shift), devWant{"app", xproto.ButtonPress, "outer", 50, 70, "inner", shift | b1}},
				// The press's implicit grab keeps motion and the release
				// on outer after the pointer leaves it.
				{motion(50, 50), devWant{"app", xproto.MotionNotify, "outer", -50, -50, "", shift | b1}},
				{release(1, shift), devWant{"app", xproto.ButtonRelease, "outer", -50, -50, "root", shift | b1}},
				{motion(40, 40), devWant{typ: xproto.MotionNotify}},
				{motion(150, 170), devWant{"app", xproto.MotionNotify, "outer", 50, 70, "", 0}},
				{keyDown("a", ctl), devWant{"app", xproto.KeyPress, "outer", 50, 70, "", ctl}},
				{keyUp("a", ctl), devWant{"app", xproto.KeyRelease, "outer", 50, 70, "", ctl}},
			},
		},
		{
			name: "active pointer grab",
			setup: func(t *testing.T, f *inputFixture) {
				mask := xproto.PointerMotionMask | xproto.ButtonPressMask | xproto.ButtonReleaseMask
				if err := f.wm.GrabPointer(f.rootWin, mask); err != nil {
					t.Fatal(err)
				}
			},
			steps: []devStep{
				{motion(150, 170), devWant{"wm", xproto.MotionNotify, "root", 150, 170, "", 0}},
				{press(1, 0), devWant{"wm", xproto.ButtonPress, "root", 150, 170, "inner", b1}},
				{release(1, 0), devWant{"wm", xproto.ButtonRelease, "root", 150, 170, "inner", b1}},
				// Keys ignore the pointer grab.
				{keyDown("a", 0), devWant{"app", xproto.KeyPress, "outer", 50, 70, "", 0}},
				{keyUp("a", 0), devWant{"app", xproto.KeyRelease, "outer", 50, 70, "", 0}},
			},
		},
		{
			name: "active pointer grab filters by its mask",
			setup: func(t *testing.T, f *inputFixture) {
				if err := f.wm.GrabPointer(f.inner, xproto.PointerMotionMask); err != nil {
					t.Fatal(err)
				}
			},
			steps: []devStep{
				{motion(150, 170), devWant{"wm", xproto.MotionNotify, "inner", 30, 40, "", 0}},
				{press(1, 0), devWant{typ: xproto.ButtonPress}},
				{motion(10, 20), devWant{"wm", xproto.MotionNotify, "inner", -110, -110, "", b1}},
				{release(1, 0), devWant{typ: xproto.ButtonRelease}},
			},
		},
		{
			name: "passive grab",
			setup: func(t *testing.T, f *inputFixture) {
				if err := f.wm.GrabButton(f.rootWin, 1, mod1,
					xproto.ButtonPressMask|xproto.ButtonReleaseMask|xproto.PointerMotionMask); err != nil {
					t.Fatal(err)
				}
				if err := f.wm.GrabKey(f.rootWin, xproto.StringToKeysym("F1"), mod1); err != nil {
					t.Fatal(err)
				}
			},
			steps: []devStep{
				// A passive grab does not take motion before a press.
				{motion(150, 170), devWant{"app", xproto.MotionNotify, "outer", 50, 70, "", 0}},
				{press(1, mod1), devWant{"wm", xproto.ButtonPress, "root", 150, 170, "inner", mod1 | b1}},
				{motion(160, 180), devWant{"wm", xproto.MotionNotify, "root", 160, 180, "", mod1 | b1}},
				{release(1, mod1), devWant{"wm", xproto.ButtonRelease, "root", 160, 180, "inner", mod1 | b1}},
				{motion(150, 170), devWant{"app", xproto.MotionNotify, "outer", 50, 70, "", 0}},
				// Other modifiers do not match the grab.
				{press(1, shift), devWant{"app", xproto.ButtonPress, "outer", 50, 70, "inner", shift | b1}},
				{release(1, shift), devWant{"app", xproto.ButtonRelease, "outer", 50, 70, "inner", shift | b1}},
				{keyDown("F1", mod1), devWant{"wm", xproto.KeyPress, "root", 150, 170, "inner", mod1}},
				{keyUp("F1", mod1), devWant{"app", xproto.KeyRelease, "outer", 50, 70, "", mod1}},
				{keyDown("F1", 0), devWant{"app", xproto.KeyPress, "outer", 50, 70, "", 0}},
			},
		},
		{
			name: "passive grab without motion in its mask",
			setup: func(t *testing.T, f *inputFixture) {
				if err := f.wm.GrabButton(f.rootWin, 3, xproto.AnyModifier,
					xproto.ButtonPressMask|xproto.ButtonReleaseMask); err != nil {
					t.Fatal(err)
				}
			},
			steps: []devStep{
				{motion(150, 170), devWant{"app", xproto.MotionNotify, "outer", 50, 70, "", 0}},
				{press(3, ctl), devWant{"wm", xproto.ButtonPress, "root", 150, 170, "inner", ctl | xproto.Button3Mask}},
				{motion(155, 175), devWant{typ: xproto.MotionNotify}},
				{release(3, ctl), devWant{"wm", xproto.ButtonRelease, "root", 155, 175, "inner", ctl | xproto.Button3Mask}},
			},
		},
		{
			name: "explicit focus",
			setup: func(t *testing.T, f *inputFixture) {
				if err := f.app.SetInputFocus(f.other); err != nil {
					t.Fatal(err)
				}
			},
			steps: []devStep{
				{motion(150, 170), devWant{"app", xproto.MotionNotify, "outer", 50, 70, "", 0}},
				{keyDown("a", shift), devWant{"side", xproto.KeyPress, "other", -450, -330, "", shift}},
				{keyUp("a", shift), devWant{"side", xproto.KeyRelease, "other", -450, -330, "", shift}},
				// Focus does not redirect pointer events.
				{press(1, 0), devWant{"app", xproto.ButtonPress, "outer", 50, 70, "inner", b1}},
				{keyDown("b", 0), devWant{"side", xproto.KeyPress, "other", -450, -330, "", b1}},
				{release(1, 0), devWant{"app", xproto.ButtonRelease, "outer", 50, 70, "inner", b1}},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newInputFixture(t)
			if tc.setup != nil {
				tc.setup(t, f)
			}
			for i, st := range tc.steps {
				before := f.s.Now()
				st.in(f.s)
				after := f.s.Now()
				ptr := f.app.QueryPointer()
				var got []xproto.Event
				var gotConn []string
				for name, c := range f.conns {
					for _, ev := range drain(c) {
						if isDeviceEvent(ev.Type) {
							got = append(got, ev)
							gotConn = append(gotConn, name)
						}
					}
				}
				w := st.want
				if w.conn == "" {
					if len(got) != 0 {
						t.Errorf("step %d: want no %v, got %+v on %v", i, w.typ, got, gotConn)
					}
					continue
				}
				if len(got) != 1 {
					t.Errorf("step %d: want one %v to %s, got %d events on %v", i, w.typ, w.conn, len(got), gotConn)
					continue
				}
				ev := got[0]
				if gotConn[0] != w.conn || ev.Type != w.typ {
					t.Errorf("step %d: got %v to %s, want %v to %s", i, ev.Type, gotConn[0], w.typ, w.conn)
				}
				if ev.Window != f.wins[w.win] || ev.Subwindow != f.wins[w.sub] {
					t.Errorf("step %d: window 0x%x subwindow 0x%x, want %s 0x%x and %q 0x%x", i,
						uint32(ev.Window), uint32(ev.Subwindow), w.win, uint32(f.wins[w.win]), w.sub, uint32(f.wins[w.sub]))
				}
				if ev.X != w.x || ev.Y != w.y || ev.RootX != ptr.RootX || ev.RootY != ptr.RootY || ev.Root != f.rootWin {
					t.Errorf("step %d: at (%d,%d) root (%d,%d) on 0x%x, want (%d,%d) root (%d,%d) on 0x%x", i,
						ev.X, ev.Y, ev.RootX, ev.RootY, uint32(ev.Root), w.x, w.y, ptr.RootX, ptr.RootY, uint32(f.rootWin))
				}
				if ev.State != w.state {
					t.Errorf("step %d: state 0x%x, want 0x%x", i, ev.State, w.state)
				}
				if ev.Time <= before || ev.Time > after {
					t.Errorf("step %d: time %d outside the step's (%d, %d]", i, ev.Time, before, after)
				}
			}
		})
	}
}

// TestKeyGrabConflict pins GrabKey to GrabButton's rule: another
// connection's grab of the same key and modifiers on the window is
// BadAccess, and the owner's re-grab replaces its grab.
func TestKeyGrabConflict(t *testing.T) {
	s := NewServer()
	a, b := s.Connect("a"), s.Connect("b")
	root := s.Screens()[0].Root
	if err := a.GrabKey(root, xproto.StringToKeysym("F1"), xproto.Mod1Mask); err != nil {
		t.Fatal(err)
	}
	var xe *xproto.XError
	if err := b.GrabKey(root, xproto.StringToKeysym("F1"), xproto.Mod1Mask); !errors.As(err, &xe) ||
		xe.Code != xproto.BadAccess || xe.Major != xproto.MajorGrabKey {
		t.Errorf("conflicting GrabKey = %v, want BadAccess from GrabKey", err)
	}
	if err := a.GrabKey(root, xproto.StringToKeysym("F1"), xproto.Mod1Mask); err != nil {
		t.Errorf("re-grab by the owner rejected: %v", err)
	}
	// Other modifiers make another grab.
	if err := b.GrabKey(root, xproto.StringToKeysym("F1"), xproto.ControlMask); err != nil {
		t.Errorf("distinct key grab rejected: %v", err)
	}
	s.mu.Lock()
	n := len(s.grabs)
	s.mu.Unlock()
	if n != 2 {
		t.Errorf("%d grabs after a re-grab, want 2", n)
	}
	s.FakeKeyPress("F1", xproto.Mod1Mask)
	if evs := drain(a); len(evs) != 1 || evs[0].Type != xproto.KeyPress {
		t.Errorf("owner got %v, want one KeyPress", evs)
	}
	if evs := drain(b); len(evs) != 0 {
		t.Errorf("refused grabber got %v", evs)
	}
}

// TestNestedKeyGrabDeepestWins pins key grabs to the button grabs'
// precedence (TestDeepestGrabWindowWins): of two grabs on the pointer
// window's ancestors, the one on the deeper window takes the press,
// whichever was made first.
func TestNestedKeyGrabDeepestWins(t *testing.T) {
	f := newInputFixture(t)
	if err := f.wm.GrabKey(f.rootWin, xproto.StringToKeysym("F1"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.side.GrabKey(f.outer, xproto.StringToKeysym("F1"), 0); err != nil {
		t.Fatal(err)
	}
	f.s.FakeMotion(150, 170) // inside inner, under outer
	for _, c := range f.conns {
		drain(c)
	}
	f.s.FakeKeyPress("F1", 0)
	evs := drain(f.side)
	if len(evs) != 1 || evs[0].Type != xproto.KeyPress || evs[0].Window != f.outer || evs[0].Subwindow != f.inner {
		t.Errorf("outer's grabber got %+v, want one KeyPress on outer from inner", evs)
	}
	if evs := drain(f.wm); len(evs) != 0 {
		t.Errorf("root's grabber got %v despite a deeper grab", evs)
	}
}

// TestGrabKeyEmptyKeysym pins that GrabKey needs a key: NoSymbol
// keysym is BadValue and adds no grab.
func TestGrabKeyEmptyKeysym(t *testing.T) {
	s, c := newTestServer(t)
	var xe *xproto.XError
	if err := c.GrabKey(s.Screens()[0].Root, xproto.NoSymbol, 0); !errors.As(err, &xe) || xe.Code != xproto.BadValue {
		t.Errorf("GrabKey with no keysym = %v, want BadValue", err)
	}
	if len(s.grabs) != 0 {
		t.Errorf("%d grabs, want none", len(s.grabs))
	}
}

// TestConcurrentInputAndConfigure injects input while geometry-only
// configures (lock-free) and map/unmap cycles (writer lock) run on
// other connections. The input side holds the server lock and inputMu;
// lock-free configures reach it only through pointerRecheck, which
// takes inputMu alone. The run must end, and once it has, the pointer
// window the crossing logic last recorded must be the window at the
// pointer.
func TestConcurrentInputAndConfigure(t *testing.T) {
	s := NewServer()
	app := s.Connect("app")
	root := s.Screens()[0].Root
	wins := make([]xproto.XID, 4)
	for i := range wins {
		wins[i] = mustCreate(t, app, root, xproto.Rect{X: i * 50, Y: i * 50, Width: 100, Height: 100})
		if err := app.SelectInput(wins[i], xproto.ButtonPressMask|xproto.ButtonReleaseMask|
			xproto.PointerMotionMask|xproto.EnterWindowMask|xproto.LeaveWindowMask); err != nil {
			t.Fatal(err)
		}
		if err := app.MapWindow(wins[i]); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 300
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			s.FakeMotion(i*37%400, i*53%400)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			s.FakeButtonPress(xproto.Button1, 0)
			s.FakeButtonRelease(xproto.Button1, 0)
		}
	}()
	for g := 0; g < 2; g++ {
		c := s.Connect(fmt.Sprintf("writer%d", g))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				w := wins[(i+g)%len(wins)]
				if err := c.MoveWindow(w, (i*29+g*7)%300, i*31%300); err != nil {
					t.Errorf("MoveWindow: %v", err)
					return
				}
				if i%5 == 0 {
					if err := c.UnmapWindow(w); err != nil {
						t.Errorf("UnmapWindow: %v", err)
						return
					}
					if err := c.MapWindow(w); err != nil {
						t.Errorf("MapWindow: %v", err)
						return
					}
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("input against configures did not finish: deadlock")
	}
	ptr := app.QueryPointer()
	if got, want := xproto.XID(s.pointer.lastWin.Load()), app.WindowAt(ptr.Screen, ptr.RootX, ptr.RootY); got != want {
		t.Errorf("pointer window 0x%x, want 0x%x at (%d,%d)", uint32(got), uint32(want), ptr.RootX, ptr.RootY)
	}
}
