package xserver

import (
	"fmt"
	"slices"

	"repro/internal/xproto"
)

// The input path. X11 delivers every device event by one rule, and
// deviceInput is its one implementation for motion, button and key
// events: an active pointer grab first (pointer events only), then a
// passive grab that a press activates, then propagation from the
// source window up to the first window that selected the event.
// Passive button and key grabs share one table, Server.grabs.
//
// Locking: the grab table and the active grab are read and written
// under the server lock. Pointer state lives in atomics readable from
// anywhere; compound pointer updates (motion + crossing recomputation,
// implicit grab lifecycle) additionally hold inputMu, which sits below
// Server.mu in the lock order, so a lock-free configure can recheck the
// pointer without touching the server lock at all. Input injection
// takes both through withInput. Helpers suffixed *Input require
// inputMu.

// --- Grabs ----------------------------------------------------------------

// grabSpec identifies a passive grab: a button grab has keysym
// NoSymbol, a key grab has button 0.
type grabSpec struct {
	window    xproto.XID
	button    int
	keysym    xproto.Keysym
	modifiers uint16
}

// passiveGrab is one GrabButton or GrabKey registration.
type passiveGrab struct {
	grabSpec
	conn      *Conn
	eventMask xproto.EventMask // button grabs: the activated grab's mask
}

// GrabButton establishes a passive grab: when the button is pressed with
// exactly the given modifiers while the pointer is inside grabWindow (or
// a descendant), the press is delivered to this connection with
// grabWindow as the event window and an active grab begins.
// modifiers may be xproto.AnyModifier; button may be xproto.AnyButton.
func (c *Conn) GrabButton(grabWindow xproto.XID, button int, modifiers uint16, eventMask xproto.EventMask) error {
	if err := c.gate(xproto.MajorGrabButton, grabWindow); err != nil {
		return err
	}
	return c.grab(xproto.MajorGrabButton, grabSpec{window: grabWindow, button: button, modifiers: modifiers}, eventMask)
}

// GrabKey establishes a passive key grab: when the key is pressed with
// exactly the given modifiers while the pointer is inside grabWindow (or
// a descendant), the press is delivered to this connection with
// grabWindow as the event window.
func (c *Conn) GrabKey(grabWindow xproto.XID, keysym xproto.Keysym, modifiers uint16) error {
	if err := c.gate(xproto.MajorGrabKey, grabWindow); err != nil {
		return err
	}
	return c.grab(xproto.MajorGrabKey, grabSpec{window: grabWindow, keysym: keysym, modifiers: modifiers}, 0)
}

// grab is the body of GrabButton and GrabKey. Another connection's
// grab of the same combination is BadAccess; the connection's own is
// replaced.
func (c *Conn) grab(major xproto.Major, spec grabSpec, eventMask xproto.EventMask) error {
	s := c.server
	s.writeLock()
	defer s.mu.Unlock()
	if _, err := c.lookupWin(spec.window, major); err != nil {
		return err
	}
	if major == xproto.MajorGrabKey && spec.keysym == xproto.NoSymbol {
		return c.note(&xproto.XError{Code: xproto.BadValue, Major: major, Resource: spec.window, Detail: "no keysym"})
	}
	g := &passiveGrab{grabSpec: spec, conn: c, eventMask: eventMask}
	for i, old := range s.grabs {
		if old.grabSpec != spec {
			continue
		}
		if old.conn != c {
			what := fmt.Sprintf("button %d", spec.button)
			if spec.keysym != xproto.NoSymbol {
				what = "key " + spec.keysym.String()
			}
			return c.note(&xproto.XError{
				Code: xproto.BadAccess, Major: major, Resource: spec.window,
				Detail: fmt.Sprintf("%s already grabbed on 0x%x", what, uint32(spec.window)),
			})
		}
		s.grabs[i] = g
		return nil
	}
	s.grabs = append(s.grabs, g)
	return nil
}

// UngrabButton removes a passive button grab.
func (c *Conn) UngrabButton(grabWindow xproto.XID, button int, modifiers uint16) {
	c.ungrab(grabSpec{window: grabWindow, button: button, modifiers: modifiers})
}

// UngrabKey removes a passive key grab.
func (c *Conn) UngrabKey(grabWindow xproto.XID, keysym xproto.Keysym, modifiers uint16) {
	c.ungrab(grabSpec{window: grabWindow, keysym: keysym, modifiers: modifiers})
}

// ungrab is the body of UngrabButton and UngrabKey.
func (c *Conn) ungrab(spec grabSpec) {
	s := c.server
	s.writeLock()
	defer s.mu.Unlock()
	s.grabs = slices.DeleteFunc(s.grabs, func(g *passiveGrab) bool {
		return g.conn == c && g.grabSpec == spec
	})
}

// GrabPointer begins an active pointer grab: all subsequent pointer
// events are delivered to this connection with grabWindow as the event
// window, until UngrabPointer.
func (c *Conn) GrabPointer(grabWindow xproto.XID, eventMask xproto.EventMask) error {
	if err := c.gate(xproto.MajorGrabPointer, grabWindow); err != nil {
		return err
	}
	s := c.server
	s.writeLock()
	defer s.mu.Unlock()
	if _, err := c.lookupWin(grabWindow, xproto.MajorGrabPointer); err != nil {
		return err
	}
	if s.activeGrab.conn != nil && s.activeGrab.conn != c {
		return fmt.Errorf("xserver: AlreadyGrabbed")
	}
	s.activeGrab = activeGrab{conn: c, window: grabWindow, eventMask: eventMask}
	return nil
}

// UngrabPointer releases an active pointer grab held by this connection.
func (c *Conn) UngrabPointer() {
	s := c.server
	s.writeLock()
	defer s.mu.Unlock()
	if s.activeGrab.conn == c {
		s.activeGrab = activeGrab{}
	}
}

// --- Pointer queries -------------------------------------------------------

// PointerInfo describes the pointer as returned by QueryPointer.
type PointerInfo struct {
	Screen       int
	Root         xproto.XID
	RootX, RootY int
	Child        xproto.XID // top-level child of root containing the pointer
	State        uint16
}

// QueryPointer reports the pointer position and the root child under it.
// Lock-free.
func (c *Conn) QueryPointer() PointerInfo {
	s := c.server
	scrIdx := int(s.pointer.screen.Load())
	scr := s.screens[scrIdx]
	px, py := unpackIntPair(s.pointer.xy.Load())
	info := PointerInfo{
		Screen: scrIdx, Root: scr.Root,
		RootX: px, RootY: py, State: uint16(s.pointer.state.Load()),
	}
	root := s.lookup(scr.Root)
	if root == nil {
		return info
	}
	ks := root.kids()
	for i := len(ks) - 1; i >= 0; i-- {
		ch := ks[i]
		if ch.mapped.Load() && ch.containsPoint(px, py) {
			info.Child = ch.id
			break
		}
	}
	return info
}

// WindowAt returns the deepest viewable window containing the
// root-relative point on the given screen. Lock-free.
func (c *Conn) WindowAt(screen, rootX, rootY int) xproto.XID {
	s := c.server
	if screen < 0 || screen >= len(s.screens) {
		return xproto.None
	}
	root := s.lookup(s.screens[screen].Root)
	if root == nil {
		return xproto.None
	}
	if hit := root.descendantAt(rootX, rootY); hit != nil {
		return hit.id
	}
	return xproto.None
}

// WarpPointer moves the pointer to root-relative coordinates on the
// pointer's current screen, generating crossing and motion events.
func (c *Conn) WarpPointer(rootX, rootY int) {
	c.server.FakeMotion(rootX, rootY)
}

// --- Input injection (test/driver API) --------------------------------------
//
// These methods stand in for a human at the physical display; they live
// on Server rather than Conn because input originates at the device, not
// at any client. Each runs under withInput.

// withInput runs fn holding the server lock, so the tree and the grab
// table hold still, and inputMu, so no lock-free configure's pointer
// recheck interleaves.
func (s *Server) withInput(fn func()) {
	s.writeLock()
	s.inputMu.Lock()
	fn()
	s.inputMu.Unlock()
	s.mu.Unlock()
}

// FakeMotion moves the pointer to root coordinates, delivering
// MotionNotify and crossing events.
func (s *Server) FakeMotion(rootX, rootY int) {
	s.withInput(func() {
		s.pointer.xy.Store(packIntPair(rootX, rootY))
		s.updatePointerWindowInput()
		s.deviceInput(xproto.MotionNotify, 0, xproto.NoSymbol, 0)
	})
}

// FakeSetScreen moves the pointer to another screen.
func (s *Server) FakeSetScreen(screen int) {
	s.withInput(func() {
		if screen >= 0 && screen < len(s.screens) {
			s.pointer.screen.Store(int32(screen))
			s.pointer.lastWin.Store(uint32(xproto.None))
		}
	})
}

// FakeButtonPress presses a pointer button at the current pointer
// position, running passive-grab activation and event delivery.
func (s *Server) FakeButtonPress(button int, modifiers uint16) {
	s.withInput(func() {
		s.pointer.state.Store(s.pointer.state.Load() | uint32(buttonStateBit(button)|modifiers))
		s.deviceInput(xproto.ButtonPress, button, xproto.NoSymbol, modifiers)
	})
}

// FakeButtonRelease releases a pointer button.
func (s *Server) FakeButtonRelease(button int, modifiers uint16) {
	s.withInput(func() {
		s.deviceInput(xproto.ButtonRelease, button, xproto.NoSymbol, modifiers)
		st := uint16(s.pointer.state.Load()) &^ (buttonStateBit(button) | modifiers)
		s.pointer.state.Store(uint32(st))
		// A button release ends an implicit grab.
		if s.activeGrab.implicit && st&allButtonsMask == 0 {
			s.activeGrab = activeGrab{}
		}
	})
}

// FakeKeyPress presses a key described by an X keysym name ("a", "Up",
// "F1"...), honouring passive key grabs. An unknown name presses
// NoSymbol, which no grab or binding matches.
func (s *Server) FakeKeyPress(keysym string, modifiers uint16) {
	code := xproto.StringToKeysym(keysym)
	s.withInput(func() { s.deviceInput(xproto.KeyPress, 0, code, modifiers) })
}

// FakeKeyRelease releases a key.
func (s *Server) FakeKeyRelease(keysym string, modifiers uint16) {
	code := xproto.StringToKeysym(keysym)
	s.withInput(func() { s.deviceInput(xproto.KeyRelease, 0, code, modifiers) })
}

const allButtonsMask = uint16(xproto.Button1Mask | xproto.Button2Mask |
	xproto.Button3Mask | xproto.Button4Mask | xproto.Button5Mask)

// buttonStateBit is button's bit in the pointer state, 0 for a button
// outside 1..5.
func buttonStateBit(button int) uint16 {
	if button < 1 || button > 5 {
		return 0
	}
	return xproto.Button1Mask << (button - 1)
}

func (s *Server) pointerPos() (int, int) {
	return unpackIntPair(s.pointer.xy.Load())
}

// pointerWindow returns the deepest viewable window under the pointer.
// Lock-free.
func (s *Server) pointerWindow() *window {
	root := s.lookup(s.screens[s.pointer.screen.Load()].Root)
	if root == nil {
		return nil
	}
	px, py := s.pointerPos()
	return root.descendantAt(px, py)
}

// pointerRecheck recomputes the window under the pointer after a
// structural change to w (map, unmap, configure), skipping the full
// tree walk when the change cannot affect the result: if the current
// pointer window is not at-or-under w and w's extent (post-change) does
// not contain the pointer, the deepest-hit scan returns what it
// returned before. The extent test uses the bounding rect even for
// shaped windows — conservative, so a skip is always sound. The skip
// test reads only atomics; the slow path takes inputMu.
func (s *Server) pointerRecheck(w *window) {
	if w != nil && !s.pointerUnder(w) {
		px, py := s.pointerPos()
		wx, wy := w.rootCoords()
		lx, ly := px-wx, py-wy
		ww, wh := w.size()
		if lx < 0 || ly < 0 || lx >= ww || ly >= wh {
			return
		}
	}
	s.inputMu.Lock()
	s.updatePointerWindowInput()
	s.inputMu.Unlock()
}

// pointerUnder reports whether the current pointer window is w or a
// descendant of w. Lock-free.
func (s *Server) pointerUnder(w *window) bool {
	cur := s.lookup(xproto.XID(s.pointer.lastWin.Load()))
	for ; cur != nil; cur = cur.parent.Load() {
		if cur == w {
			return true
		}
	}
	return false
}

// updatePointerWindowInput recomputes the window under the pointer and
// emits Enter/Leave events on change. Called after motion and after any
// geometry/map change that can move the pointer between windows. Caller
// holds inputMu.
func (s *Server) updatePointerWindowInput() {
	w := s.pointerWindow()
	var id xproto.XID
	if w != nil {
		id = w.id
	}
	last := xproto.XID(s.pointer.lastWin.Load())
	if id == last {
		return
	}
	t := s.tick()
	px, py := s.pointerPos()
	state := uint16(s.pointer.state.Load())
	if old := s.lookup(last); old != nil {
		ox, oy := old.rootCoords()
		s.deliver(old, xproto.LeaveWindowMask, &xproto.Event{
			Type: xproto.LeaveNotify, Window: old.id,
			X: px - ox, Y: py - oy,
			RootX: px, RootY: py,
			State: state, Time: t,
		})
	}
	s.pointer.lastWin.Store(uint32(id))
	if w != nil {
		wx, wy := w.rootCoords()
		s.deliver(w, xproto.EnterWindowMask, &xproto.Event{
			Type: xproto.EnterNotify, Window: w.id,
			X: px - wx, Y: py - wy,
			RootX: px, RootY: py,
			State: state, Time: t,
		})
	}
}

// deviceInput generates one device event of typ at the pointer and
// delivers it by X11's rule: an active pointer grab takes pointer
// events; else a press activates the passive grab whose window is the
// deepest at or above the pointer window; else the event propagates
// from the source window (the pointer window, or for a key event an
// explicit focus) to the first window that selected it, and every
// connection selecting it there receives it. A button press that is
// delivered starts an implicit grab. Button events, and a press a
// passive grab takes, carry the pointer window as Subwindow. Caller
// holds the server lock and inputMu.
func (s *Server) deviceInput(typ xproto.EventType, button int, keysym xproto.Keysym, modifiers uint16) {
	ev := xproto.Event{
		Type: typ, Root: s.screens[s.pointer.screen.Load()].Root, Time: s.tick(),
		Button: button, Keysym: keysym, State: modifiers | uint16(s.pointer.state.Load()),
	}
	ev.RootX, ev.RootY = s.pointerPos()
	under := s.pointerWindow()
	src := under
	var mask xproto.EventMask
	key := false
	switch typ {
	case xproto.MotionNotify:
		mask = xproto.PointerMotionMask
	case xproto.ButtonPress, xproto.ButtonRelease:
		mask = xproto.ButtonPressMask
		if typ == xproto.ButtonRelease {
			mask = xproto.ButtonReleaseMask
		}
		if under != nil {
			ev.Subwindow = under.id
		}
	case xproto.KeyPress, xproto.KeyRelease:
		mask = xproto.KeyPressMask
		if typ == xproto.KeyRelease {
			mask = xproto.KeyReleaseMask
		}
		key = true
		if fw := s.lookup(xproto.XID(s.focus.Load())); fw != nil {
			src = fw
		}
	}

	if g := &s.activeGrab; g.conn != nil && !key {
		if gw := s.lookup(g.window); gw != nil && g.eventMask&mask != 0 {
			relativeTo(&ev, gw)
			g.conn.enqueue(&ev)
		}
		return
	}

	if (typ == xproto.ButtonPress || typ == xproto.KeyPress) && under != nil {
		var best *passiveGrab
		var bestWin *window
		bestDepth := 0
		for _, g := range s.grabs {
			if g.keysym != keysym || (g.button != button && g.button != xproto.AnyButton) ||
				(g.modifiers != modifiers && g.modifiers != xproto.AnyModifier) {
				continue
			}
			gw := s.lookup(g.window)
			depth := 0
			p := under
			for ; p != nil && p != gw; p = p.parent.Load() {
				depth++
			}
			if p != nil && (best == nil || depth < bestDepth) {
				best, bestWin, bestDepth = g, gw, depth
			}
		}
		if best != nil {
			ev.Subwindow = under.id
			relativeTo(&ev, bestWin)
			best.conn.enqueue(&ev)
			if typ == xproto.ButtonPress {
				s.activeGrab = activeGrab{
					conn: best.conn, window: best.window,
					eventMask: best.eventMask | mask | xproto.ButtonReleaseMask,
					implicit:  true,
				}
			}
			return
		}
	}

	for w := src; w != nil; w = w.parent.Load() {
		mt := w.masks.Load()
		if mt == nil {
			continue
		}
		var first *maskSel
		for i := range mt.sel {
			ms := &mt.sel[i]
			if ms.mask&mask == 0 {
				continue
			}
			if first == nil {
				first = ms
				relativeTo(&ev, w)
			}
			ms.conn.enqueue(&ev)
		}
		if first != nil {
			if typ == xproto.ButtonPress {
				s.activeGrab = activeGrab{
					conn: first.conn, window: w.id,
					eventMask: first.mask | xproto.ButtonReleaseMask,
					implicit:  true,
				}
			}
			return
		}
	}
}

// relativeTo makes w the event window of ev, with X and Y relative to
// w's origin.
func relativeTo(ev *xproto.Event, w *window) {
	x, y := w.rootCoords()
	ev.Window, ev.X, ev.Y = w.id, ev.RootX-x, ev.RootY-y
}
