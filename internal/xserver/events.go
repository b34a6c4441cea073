package xserver

import (
	"fmt"

	"repro/internal/xproto"
)

// redirector returns the connection holding SubstructureRedirect on w,
// or nil. Lock-free: scans the immutable mask snapshot.
func (s *Server) redirector(w *window) *Conn {
	mt := w.masks.Load()
	if mt == nil {
		return nil
	}
	for _, ms := range mt.sel {
		if ms.mask&xproto.SubstructureRedirectMask != 0 {
			return ms.conn
		}
	}
	return nil
}

// deliver appends ev to the queue of every connection that selected
// mask on w. Safe from any context: the mask table is an immutable
// snapshot and each queue has its own leaf lock, so delivery needs no
// server lock and stays FIFO per connection.
func (s *Server) deliver(w *window, mask xproto.EventMask, ev *xproto.Event) {
	mt := w.masks.Load()
	if mt == nil {
		return
	}
	rootSet := false
	for _, ms := range mt.sel {
		if ms.mask&mask != 0 {
			if !rootSet {
				ev.Root = s.screens[w.screen].Root
				rootSet = true
			}
			ms.conn.enqueue(ev)
		}
	}
}

// enqueue appends ev to the connection's event queue. Safe from any
// context (leaf lock).
func (c *Conn) enqueue(ev *xproto.Event) {
	c.qMu.Lock()
	if c.closed.Load() {
		c.qMu.Unlock()
		return
	}
	if c.qhead > 0 && c.qhead == len(c.queue) {
		// The queue drained; reuse the buffer from the start instead of
		// growing the tail forever (pops advance qhead, not the base).
		c.queue = c.queue[:0]
		c.qhead = 0
	}
	if c.queue == nil {
		// First event: start at a capacity that absorbs a typical
		// manage sequence in one allocation instead of a growth chain.
		c.queue = make([]xproto.Event, 0, 16)
	}
	c.queue = append(c.queue, *ev)
	c.qCond.Broadcast()
	c.qMu.Unlock()
}

// WaitEvent blocks until an event is available and returns it. It
// returns ok=false if the connection is closed.
func (c *Conn) WaitEvent() (xproto.Event, bool) {
	c.qMu.Lock()
	defer c.qMu.Unlock()
	for c.qhead == len(c.queue) && !c.closed.Load() {
		c.qCond.Wait()
	}
	if c.qhead == len(c.queue) {
		return xproto.Event{}, false
	}
	ev := c.queue[c.qhead]
	c.qhead++
	return ev, true
}

// PollEvent returns the next queued event without blocking.
func (c *Conn) PollEvent() (xproto.Event, bool) {
	c.qMu.Lock()
	defer c.qMu.Unlock()
	if c.qhead == len(c.queue) {
		return xproto.Event{}, false
	}
	ev := c.queue[c.qhead]
	c.qhead++
	return ev, true
}

// SendEvent delivers a synthetic event. If mask is zero the event goes to
// the owner of the destination window (as X does for NoEventMask);
// otherwise it goes to every connection selecting mask on the window.
// The event is flagged SendEvent. As in X.Org's ProcSendEvent, an
// event type outside the core and extension range, or a ClientMessage
// whose format is not 8, 16 or 32, is BadValue before any delivery.
func (c *Conn) SendEvent(dst xproto.XID, mask xproto.EventMask, ev xproto.Event) error {
	if err := c.gate(xproto.MajorSendEvent, dst); err != nil {
		return err
	}
	s := c.server
	s.writeLock()
	defer s.mu.Unlock()
	if ev.Type < xproto.KeyPress || ev.Type > xproto.ShapeNotify {
		return c.note(&xproto.XError{Code: xproto.BadValue, Major: xproto.MajorSendEvent, Resource: dst,
			Detail: fmt.Sprintf("event type %d", int(ev.Type))})
	}
	if ev.Type == xproto.ClientMessage && ev.Format != 8 && ev.Format != 16 && ev.Format != 32 {
		return c.note(&xproto.XError{Code: xproto.BadValue, Major: xproto.MajorSendEvent, Resource: dst,
			Detail: fmt.Sprintf("ClientMessage format %d", ev.Format)})
	}
	w, err := c.lookupWin(dst, xproto.MajorSendEvent)
	if err != nil {
		return err
	}
	ev.SendEvent = true
	ev.Window = dst
	if ev.Time == 0 {
		ev.Time = s.tick()
	}
	if mask == 0 {
		if w.owner != nil {
			w.owner.enqueue(&ev)
		}
		return nil
	}
	s.deliver(w, mask, &ev)
	return nil
}

// SetInputFocus assigns keyboard focus. PointerRoot means
// focus-follows-pointer.
func (c *Conn) SetInputFocus(id xproto.XID) error {
	if err := c.gate(xproto.MajorSetInputFocus, id); err != nil {
		return err
	}
	s := c.server
	s.writeLock()
	defer s.mu.Unlock()
	if id != xproto.None && id != xproto.PointerRoot {
		if _, err := c.lookupWin(id, xproto.MajorSetInputFocus); err != nil {
			return err
		}
	}
	old := xproto.XID(s.focus.Load())
	s.focus.Store(uint32(id))
	if old != id {
		if ow := s.lookup(old); ow != nil {
			s.deliver(ow, xproto.FocusChangeMask, &xproto.Event{
				Type: xproto.FocusOut, Window: old, Time: s.tick(),
			})
		}
		if nw := s.lookup(id); nw != nil {
			s.deliver(nw, xproto.FocusChangeMask, &xproto.Event{
				Type: xproto.FocusIn, Window: id, Time: s.tick(),
			})
		}
	}
	return nil
}

// GetInputFocus returns the current focus window. Lock-free.
func (c *Conn) GetInputFocus() xproto.XID {
	return xproto.XID(c.server.focus.Load())
}

// KillClient closes the connection owning the given resource, as the X
// KillClient request does. Used by f.delete fallbacks.
func (c *Conn) KillClient(id xproto.XID) error {
	if err := c.gate(xproto.MajorKillClient, id); err != nil {
		return err
	}
	s := c.server
	s.writeLock()
	w, err := c.lookupWin(id, xproto.MajorKillClient)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	owner := w.owner
	if owner == nil {
		err := c.note(&xproto.XError{
			Code: xproto.BadValue, Major: xproto.MajorKillClient, Resource: id,
			Detail: fmt.Sprintf("window 0x%x has no owner", uint32(id)),
		})
		s.mu.Unlock()
		return err
	}
	s.mu.Unlock()
	owner.Close()
	return nil
}
