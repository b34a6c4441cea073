package xserver

import (
	"fmt"
	"slices"

	"repro/internal/xproto"
)

// Input locking: grab tables are written under the server lock held
// exclusively and read under either mode. Pointer state lives in
// atomics readable from anywhere; compound pointer updates (motion +
// crossing recomputation, implicit grab lifecycle) additionally hold
// inputMu, which sits below Server.mu in the lock order — so a
// lock-free configure can recheck the pointer without touching the
// server lock at all. Helpers suffixed *Input require inputMu.

// --- Grabs ----------------------------------------------------------------

// GrabButton establishes a passive grab: when the button is pressed with
// exactly the given modifiers while the pointer is inside grabWindow (or
// a descendant), the press is delivered to this connection with
// grabWindow as the event window and an active grab begins.
// modifiers may be xproto.AnyModifier; button may be xproto.AnyButton.
func (c *Conn) GrabButton(grabWindow xproto.XID, button int, modifiers uint16, eventMask xproto.EventMask) error {
	if err := c.gate(xproto.MajorGrabButton, grabWindow); err != nil {
		return err
	}
	s := c.server
	s.writeLock()
	defer s.mu.Unlock()
	if _, err := c.lookupWin(grabWindow, xproto.MajorGrabButton); err != nil {
		return err
	}
	for _, g := range s.buttonGrabs {
		if g.window == grabWindow && g.button == button && g.modifiers == modifiers {
			if g.conn != c {
				return c.note(&xproto.XError{
					Code: xproto.BadAccess, Major: xproto.MajorGrabButton, Resource: grabWindow,
					Detail: fmt.Sprintf("button %d already grabbed on 0x%x", button, uint32(grabWindow)),
				})
			}
			g.eventMask = eventMask
			return nil
		}
	}
	s.buttonGrabs = append(s.buttonGrabs, &buttonGrab{
		conn: c, window: grabWindow, button: button,
		modifiers: modifiers, eventMask: eventMask,
	})
	return nil
}

// UngrabButton removes a passive button grab.
func (c *Conn) UngrabButton(grabWindow xproto.XID, button int, modifiers uint16) {
	s := c.server
	s.writeLock()
	defer s.mu.Unlock()
	s.buttonGrabs = slices.DeleteFunc(s.buttonGrabs, func(g *buttonGrab) bool {
		return g.conn == c && g.window == grabWindow && g.button == button && g.modifiers == modifiers
	})
}

// GrabKey establishes a passive key grab on a window.
func (c *Conn) GrabKey(grabWindow xproto.XID, keysym string, modifiers uint16) error {
	if err := c.gate(xproto.MajorGrabKey, grabWindow); err != nil {
		return err
	}
	s := c.server
	s.writeLock()
	defer s.mu.Unlock()
	if _, err := c.lookupWin(grabWindow, xproto.MajorGrabKey); err != nil {
		return err
	}
	s.keyGrabs = append(s.keyGrabs, &keyGrab{
		conn: c, window: grabWindow, keysym: keysym, modifiers: modifiers,
	})
	return nil
}

// UngrabKey removes passive key grabs matching the arguments.
func (c *Conn) UngrabKey(grabWindow xproto.XID, keysym string, modifiers uint16) {
	s := c.server
	s.writeLock()
	defer s.mu.Unlock()
	s.keyGrabs = slices.DeleteFunc(s.keyGrabs, func(g *keyGrab) bool {
		return g.conn == c && g.window == grabWindow && g.keysym == keysym && g.modifiers == modifiers
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
	if s.activeGrab != nil && s.activeGrab.conn != c {
		return fmt.Errorf("xserver: AlreadyGrabbed")
	}
	s.activeGrab = &activeGrab{conn: c, window: grabWindow, eventMask: eventMask}
	return nil
}

// UngrabPointer releases an active pointer grab held by this connection.
func (c *Conn) UngrabPointer() {
	s := c.server
	s.writeLock()
	defer s.mu.Unlock()
	if s.activeGrab != nil && s.activeGrab.conn == c {
		s.activeGrab = nil
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
	s := c.server
	s.mu.RLock()
	s.inputMu.Lock()
	s.motionInput(rootX, rootY)
	s.inputMu.Unlock()
	s.mu.RUnlock()
}

// --- Input injection (test/driver API) --------------------------------------
//
// These methods stand in for a human at the physical display; they live
// on Server rather than Conn because input originates at the device, not
// at any client. They hold the server lock shared (keeping grab tables
// and the tree stable against exclusive writers) plus inputMu.

// FakeMotion moves the pointer to root coordinates, delivering
// MotionNotify and crossing events.
func (s *Server) FakeMotion(rootX, rootY int) {
	s.mu.RLock()
	s.inputMu.Lock()
	s.motionInput(rootX, rootY)
	s.inputMu.Unlock()
	s.mu.RUnlock()
}

// FakeSetScreen moves the pointer to another screen.
func (s *Server) FakeSetScreen(screen int) {
	s.mu.RLock()
	s.inputMu.Lock()
	if screen >= 0 && screen < len(s.screens) {
		s.pointer.screen.Store(int32(screen))
		s.pointer.lastWin.Store(uint32(xproto.None))
	}
	s.inputMu.Unlock()
	s.mu.RUnlock()
}

// FakeButtonPress presses a pointer button at the current pointer
// position, running passive-grab activation and event delivery.
func (s *Server) FakeButtonPress(button int, modifiers uint16) {
	s.mu.RLock()
	s.inputMu.Lock()
	st := uint16(s.pointer.state.Load())
	st |= buttonStateBit(button)
	st |= modifiers
	s.pointer.state.Store(uint32(st))
	s.buttonEventInput(xproto.ButtonPress, button, modifiers)
	s.inputMu.Unlock()
	s.mu.RUnlock()
}

// FakeButtonRelease releases a pointer button.
func (s *Server) FakeButtonRelease(button int, modifiers uint16) {
	s.mu.RLock()
	s.inputMu.Lock()
	s.buttonEventInput(xproto.ButtonRelease, button, modifiers)
	st := uint16(s.pointer.state.Load())
	st &^= buttonStateBit(button)
	st &^= modifiers
	s.pointer.state.Store(uint32(st))
	// A button release ends an implicit grab.
	if s.activeGrab != nil && s.activeGrab.implicit && st&allButtonsMask == 0 {
		s.activeGrab = nil
	}
	s.inputMu.Unlock()
	s.mu.RUnlock()
}

// FakeKeyPress presses a key described by an X keysym name ("a", "Up",
// "F1"...), honouring passive key grabs.
func (s *Server) FakeKeyPress(keysym string, modifiers uint16) {
	s.mu.RLock()
	s.inputMu.Lock()
	s.keyEventInput(xproto.KeyPress, keysym, modifiers)
	s.inputMu.Unlock()
	s.mu.RUnlock()
}

// FakeKeyRelease releases a key.
func (s *Server) FakeKeyRelease(keysym string, modifiers uint16) {
	s.mu.RLock()
	s.inputMu.Lock()
	s.keyEventInput(xproto.KeyRelease, keysym, modifiers)
	s.inputMu.Unlock()
	s.mu.RUnlock()
}

const allButtonsMask = uint16(xproto.Button1Mask | xproto.Button2Mask |
	xproto.Button3Mask | xproto.Button4Mask | xproto.Button5Mask)

func buttonStateBit(button int) uint16 {
	switch button {
	case 1:
		return xproto.Button1Mask
	case 2:
		return xproto.Button2Mask
	case 3:
		return xproto.Button3Mask
	case 4:
		return xproto.Button4Mask
	case 5:
		return xproto.Button5Mask
	}
	return 0
}

func (s *Server) pointerPos() (int, int) {
	return unpackIntPair(s.pointer.xy.Load())
}

// motionInput updates pointer position and emits crossing + motion
// events. Caller holds inputMu.
func (s *Server) motionInput(rootX, rootY int) {
	s.pointer.xy.Store(packIntPair(rootX, rootY))
	s.updatePointerWindowInput()
	// Motion delivery: to the active grab, else to the deepest window
	// selecting PointerMotion, walking up.
	t := s.tick()
	state := uint16(s.pointer.state.Load())
	rootID := s.screens[s.pointer.screen.Load()].Root
	if g := s.activeGrab; g != nil {
		if g.eventMask&xproto.PointerMotionMask != 0 {
			if gw := s.lookup(g.window); gw != nil {
				gx, gy := gw.rootCoords()
				g.conn.enqueue(xproto.Event{
					Type: xproto.MotionNotify, Window: g.window,
					X: rootX - gx, Y: rootY - gy, RootX: rootX, RootY: rootY,
					State: state, Time: t, Root: rootID,
				})
			}
		}
		return
	}
	w := s.pointerWindow()
	for ; w != nil; w = w.parent.Load() {
		delivered := false
		if mt := w.masks.Load(); mt != nil {
			for _, ms := range mt.sel {
				if ms.mask&xproto.PointerMotionMask != 0 {
					wx, wy := w.rootCoords()
					ms.conn.enqueue(xproto.Event{
						Type: xproto.MotionNotify, Window: w.id,
						X: rootX - wx, Y: rootY - wy, RootX: rootX, RootY: rootY,
						State: state, Time: t, Root: rootID,
					})
					delivered = true
				}
			}
		}
		if delivered {
			break
		}
	}
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
		s.deliver(old, xproto.LeaveWindowMask, xproto.Event{
			Type: xproto.LeaveNotify, Window: old.id,
			X: px - ox, Y: py - oy,
			RootX: px, RootY: py,
			State: state, Time: t,
		})
	}
	s.pointer.lastWin.Store(uint32(id))
	if w != nil {
		wx, wy := w.rootCoords()
		s.deliver(w, xproto.EnterWindowMask, xproto.Event{
			Type: xproto.EnterNotify, Window: w.id,
			X: px - wx, Y: py - wy,
			RootX: px, RootY: py,
			State: state, Time: t,
		})
	}
}

// buttonEventInput dispatches a button press/release: active grab
// first, then passive grab activation (press only), then normal
// delivery to the deepest selecting window with upward propagation.
// Caller holds the server lock shared plus inputMu.
func (s *Server) buttonEventInput(typ xproto.EventType, button int, modifiers uint16) {
	t := s.tick()
	rootID := s.screens[s.pointer.screen.Load()].Root
	px, py := s.pointerPos()
	state := uint16(s.pointer.state.Load())
	under := s.pointerWindow()
	var underID xproto.XID
	if under != nil {
		underID = under.id
	}

	mask := xproto.ButtonPressMask
	if typ == xproto.ButtonRelease {
		mask = xproto.ButtonReleaseMask
	}

	// Active grab takes priority.
	if g := s.activeGrab; g != nil {
		if g.eventMask&mask != 0 {
			if gw := s.lookup(g.window); gw != nil {
				gx, gy := gw.rootCoords()
				g.conn.enqueue(xproto.Event{
					Type: typ, Window: g.window, Subwindow: underID,
					X: px - gx, Y: py - gy,
					RootX: px, RootY: py,
					Button: button, State: modifiers | state,
					Time: t, Root: rootID,
				})
			}
		}
		return
	}

	// Passive grabs: on press, find the most specific grab whose window
	// is the pointer window or an ancestor. Deepest grab window wins.
	if typ == xproto.ButtonPress && under != nil {
		var best *buttonGrab
		bestDepth := -1
		for _, g := range s.buttonGrabs {
			if g.button != button && g.button != xproto.AnyButton {
				continue
			}
			if g.modifiers != xproto.AnyModifier && g.modifiers != modifiers {
				continue
			}
			gw := s.lookup(g.window)
			if gw == nil {
				continue
			}
			if gw != under && !gw.isAncestorOf(under) {
				continue
			}
			depth := 0
			for p := under; p != nil && p != gw; p = p.parent.Load() {
				depth++
			}
			// Smaller depth = grab window closer to the pointer window.
			if best == nil || depth < bestDepth {
				best, bestDepth = g, depth
			}
		}
		if best != nil {
			gw := s.lookup(best.window)
			gx, gy := gw.rootCoords()
			best.conn.enqueue(xproto.Event{
				Type: typ, Window: best.window, Subwindow: underID,
				X: px - gx, Y: py - gy,
				RootX: px, RootY: py,
				Button: button, State: modifiers | state,
				Time: t, Root: rootID,
			})
			// Activate an implicit grab so the matching release goes to
			// the same client.
			s.activeGrab = &activeGrab{
				conn: best.conn, window: best.window,
				eventMask: best.eventMask | mask | xproto.ButtonReleaseMask,
				implicit:  true,
			}
			return
		}
	}

	// Normal delivery: deepest window selecting the mask, walking up.
	for w := under; w != nil; w = w.parent.Load() {
		delivered := false
		var grabConn *Conn
		var grabMask xproto.EventMask
		if mt := w.masks.Load(); mt != nil {
			for _, ms := range mt.sel {
				if ms.mask&mask != 0 {
					wx, wy := w.rootCoords()
					ms.conn.enqueue(xproto.Event{
						Type: typ, Window: w.id, Subwindow: underID,
						X: px - wx, Y: py - wy,
						RootX: px, RootY: py,
						Button: button, State: modifiers | state,
						Time: t, Root: rootID,
					})
					if !delivered {
						grabConn, grabMask = ms.conn, ms.mask
					}
					delivered = true
				}
			}
		}
		if delivered {
			if typ == xproto.ButtonPress && grabConn != nil {
				// Implicit grab for press/release pairing.
				s.activeGrab = &activeGrab{
					conn: grabConn, window: w.id,
					eventMask: grabMask | xproto.ButtonReleaseMask,
					implicit:  true,
				}
			}
			return
		}
	}
}

// keyEventInput dispatches a key press/release: passive key grabs
// first, then focus/pointer delivery. Caller holds the server lock
// shared plus inputMu.
func (s *Server) keyEventInput(typ xproto.EventType, keysym string, modifiers uint16) {
	t := s.tick()
	rootID := s.screens[s.pointer.screen.Load()].Root
	px, py := s.pointerPos()
	state := uint16(s.pointer.state.Load())
	under := s.pointerWindow()

	mask := xproto.KeyPressMask
	if typ == xproto.KeyRelease {
		mask = xproto.KeyReleaseMask
	}

	if typ == xproto.KeyPress && under != nil {
		for _, g := range s.keyGrabs {
			if g.keysym != keysym {
				continue
			}
			if g.modifiers != xproto.AnyModifier && g.modifiers != modifiers {
				continue
			}
			gw := s.lookup(g.window)
			if gw == nil {
				continue
			}
			if gw != under && !gw.isAncestorOf(under) {
				continue
			}
			gx, gy := gw.rootCoords()
			var underID xproto.XID
			if under != nil {
				underID = under.id
			}
			g.conn.enqueue(xproto.Event{
				Type: typ, Window: g.window, Subwindow: underID,
				X: px - gx, Y: py - gy,
				RootX: px, RootY: py,
				Keysym: keysym, State: modifiers | state,
				Time: t, Root: rootID,
			})
			return
		}
	}

	// Determine the delivery window: explicit focus, else pointer window.
	var target *window
	focus := xproto.XID(s.focus.Load())
	if focus != xproto.PointerRoot && focus != xproto.None {
		if fw := s.lookup(focus); fw != nil {
			target = fw
		}
	}
	if target == nil {
		target = under
	}
	for w := target; w != nil; w = w.parent.Load() {
		delivered := false
		if mt := w.masks.Load(); mt != nil {
			for _, ms := range mt.sel {
				if ms.mask&mask != 0 {
					wx, wy := w.rootCoords()
					ms.conn.enqueue(xproto.Event{
						Type: typ, Window: w.id,
						X: px - wx, Y: py - wy,
						RootX: px, RootY: py,
						Keysym: keysym, State: modifiers | state,
						Time: t, Root: rootID,
					})
					delivered = true
				}
			}
		}
		if delivered {
			return
		}
	}
}
