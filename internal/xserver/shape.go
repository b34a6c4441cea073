package xserver

import (
	"sort"

	"repro/internal/xproto"
)

// SHAPE extension support: windows may have a non-rectangular bounding
// region expressed as a union of window-relative rectangles. Shaped
// windows hit-test against their region; ShapeNotify events inform
// interested clients (the WM selects them to apply shaped decoration).

// ShapeCombineRectangles sets the window's bounding region to the union
// of the given window-relative rectangles and notifies shape listeners.
// Passing no rectangles resets the window to an ordinary rectangular
// shape.
func (c *Conn) ShapeCombineRectangles(id xproto.XID, rects []xproto.Rect) error {
	if err := c.gate(xproto.MajorShapeCombineRectangles, id); err != nil {
		return err
	}
	s := c.server
	s.writeLock()
	defer s.mu.Unlock()
	w, err := c.lookupWin(id, xproto.MajorShapeCombineRectangles)
	if err != nil {
		return err
	}
	if len(rects) == 0 {
		w.shaped.Store(false)
		w.shapeRects.Store(nil)
	} else {
		rs := append([]xproto.Rect(nil), rects...)
		w.shapeRects.Store(&rs)
		w.shaped.Store(true)
	}
	if anySelects(w.masks.Load(), xproto.StructureNotifyMask) {
		ww, wh := w.size()
		s.deliver(w, xproto.StructureNotifyMask, &xproto.Event{
			Type: xproto.ShapeNotify, Window: w.id, Shaped: w.shaped.Load(),
			Width: ww, Height: wh, Time: s.tick(),
		})
	}
	return nil
}

// ShapeQuery reports whether the window is shaped and returns a copy of
// its bounding rectangles (window-relative, sorted for determinism).
// Lock-free.
func (c *Conn) ShapeQuery(id xproto.XID) (shaped bool, rects []xproto.Rect, err error) {
	if err := c.gate(xproto.MajorShapeQuery, id); err != nil {
		return false, nil, err
	}
	w, err := c.lookupWin(id, xproto.MajorShapeQuery)
	if err != nil {
		return false, nil, err
	}
	var out []xproto.Rect
	if rp := w.shapeRects.Load(); rp != nil {
		out = append(out, *rp...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Y != out[j].Y {
			return out[i].Y < out[j].Y
		}
		return out[i].X < out[j].X
	})
	return w.shaped.Load(), out, nil
}

// ShapeSelectInput arranges for ShapeNotify events on the window to be
// delivered to this connection (implemented via StructureNotify
// selection, which is how our model routes ShapeNotify).
func (c *Conn) ShapeSelectInput(id xproto.XID) error {
	if err := c.gate(xproto.MajorShapeSelectInput, id); err != nil {
		return err
	}
	s := c.server
	s.writeLock()
	defer s.mu.Unlock()
	w, err := c.lookupWin(id, xproto.MajorShapeSelectInput)
	if err != nil {
		return err
	}
	w.setMask(c, w.maskOf(c)|xproto.StructureNotifyMask)
	return nil
}
