package core

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/xproto"
	"repro/internal/xserver"
)

func xserverAttrs(label string) xserver.WindowAttributes {
	return xserver.WindowAttributes{OverrideRedirect: true, Label: label}
}

// createDesktop builds the Virtual Desktop window: a large
// override-redirect child of the real root that client frames live on.
// Panning moves this window to negative offsets; its children receive
// no ConfigureNotify because they have not moved relative to their
// parent — exactly the ICCCM tension the paper analyzes (§6.3.1).
// The desktop starts at 4x the screen in each dimension, clamped to
// MaxDesktopSize; ResizeDesktop changes it afterwards.
func (wm *WM) createDesktop(scr *Screen) error {
	w := min(scr.Width*4, MaxDesktopSize)
	h := min(scr.Height*4, MaxDesktopSize)
	id, err := wm.conn.CreateWindow(scr.Root,
		xproto.Rect{X: 0, Y: 0, Width: w, Height: h}, 0,
		xserverAttrs("desktop"))
	if err != nil {
		return fmt.Errorf("core: creating Virtual Desktop: %w", err)
	}
	// The WM redirects map/configure of desktop children too, so client
	// windows created as children of the desktop behave like top-levels.
	if err := wm.conn.SelectInput(id,
		xproto.SubstructureRedirectMask|xproto.SubstructureNotifyMask|
			xproto.ButtonPressMask|xproto.ButtonReleaseMask); err != nil {
		return err
	}
	if err := wm.conn.MapWindow(id); err != nil {
		return err
	}
	if err := wm.conn.LowerWindow(id); err != nil {
		return err
	}
	scr.Desktop = id
	scr.DesktopW, scr.DesktopH = w, h
	return nil
}

// PanTo scrolls the Virtual Desktop so the viewport's top-left sits at
// desktop coordinates (x, y), clamped to the desktop bounds. Sticky
// windows stay put; desktop children move with the desktop window and
// receive no events (§6.3.1: "The window gets no ConfigureNotify
// events, real or synthetic, because it hasn't moved with respect to
// its root").
func (wm *WM) PanTo(scr *Screen, x, y int) {
	if scr.Desktop == xproto.None {
		return
	}
	x = geom.Clamp(x, 0, scr.DesktopW-scr.Width)
	y = geom.Clamp(y, 0, scr.DesktopH-scr.Height)
	if x == scr.PanX && y == scr.PanY {
		return
	}
	scr.PanX, scr.PanY = x, y
	wm.notePan(scr.Desktop, x, y)
	wm.check(nil, "pan desktop", wm.conn.MoveWindow(scr.Desktop, -x, -y))
	wm.markViewDirty(scr)
}

// PanBy scrolls relative to the current position.
func (wm *WM) PanBy(scr *Screen, dx, dy int) {
	wm.PanTo(scr, scr.PanX+dx, scr.PanY+dy)
}

// ResizeDesktop changes the Virtual Desktop size at run time (the paper:
// resizing the panner resizes the desktop). The pan offset is clamped
// into the new bounds.
func (wm *WM) ResizeDesktop(scr *Screen, w, h int) {
	if scr.Desktop == xproto.None {
		return
	}
	w = geom.Clamp(w, scr.Width, MaxDesktopSize)
	h = geom.Clamp(h, scr.Height, MaxDesktopSize)
	scr.DesktopW, scr.DesktopH = w, h
	wm.check(nil, "resize desktop", wm.conn.ResizeWindow(scr.Desktop, w, h))
	// Re-clamp the pan offset into the new bounds explicitly. PanTo
	// early-outs when the clamped offset equals the current one, which
	// is exactly the case after a shrink that leaves PanX/PanY inside
	// the new bounds but the scrollbars and panner drawn for the old
	// size — so move and mark unconditionally here. (This used to call
	// updatePannerViewport directly and then again via the full panner
	// rebuild; the dirty bits collapse both into one flush.)
	scr.PanX = geom.Clamp(scr.PanX, 0, w-scr.Width)
	scr.PanY = geom.Clamp(scr.PanY, 0, h-scr.Height)
	wm.check(nil, "pan desktop", wm.conn.MoveWindow(scr.Desktop, -scr.PanX, -scr.PanY))
	wm.markViewDirty(scr)
	wm.markPannerDirty(scr)
}

// Stick pins a client to the glass (§6.2): its frame is reparented from
// the desktop to the real root at the same on-screen position, the
// decoration is re-evaluated with the "sticky" resource prefix, and
// SWM_ROOT is rewritten.
func (wm *WM) Stick(c *Client) error {
	if c.Sticky {
		return nil
	}
	scr := c.scr
	if scr.Desktop == xproto.None {
		c.Sticky = true
		return nil
	}
	// Convert desktop coords to root coords.
	c.FrameRect.X -= scr.PanX
	c.FrameRect.Y -= scr.PanY
	c.Sticky = true
	wm.markPannerDirty(scr)
	return wm.redecorate(c)
}

// Unstick releases a sticky client back onto the desktop.
func (wm *WM) Unstick(c *Client) error {
	if !c.Sticky {
		return nil
	}
	scr := c.scr
	if scr.Desktop == xproto.None {
		c.Sticky = false
		return nil
	}
	c.FrameRect.X += scr.PanX
	c.FrameRect.Y += scr.PanY
	c.Sticky = false
	wm.markPannerDirty(scr)
	return wm.redecorate(c)
}

// Viewport returns the screen's current view rectangle in desktop
// coordinates.
func (scr *Screen) Viewport() xproto.Rect {
	return xproto.Rect{X: scr.PanX, Y: scr.PanY, Width: scr.Width, Height: scr.Height}
}

// --- Scrollbars (§6: one of the three ways to pan) -------------------------

const scrollbarThickness = 12

// createScrollbars adds a horizontal strip along the bottom edge and a
// vertical strip along the right edge of the screen. A Button1 press in
// a strip pans so that the proportional position of the click becomes
// the center of the viewport along that axis.
func (wm *WM) createScrollbars(scr *Screen) error {
	h, err := wm.conn.CreateWindow(scr.Root, xproto.Rect{
		X: 0, Y: scr.Height - scrollbarThickness,
		Width: scr.Width - scrollbarThickness, Height: scrollbarThickness,
	}, 0, xserverAttrs("hscroll"))
	if err != nil {
		return err
	}
	v, err := wm.conn.CreateWindow(scr.Root, xproto.Rect{
		X: scr.Width - scrollbarThickness, Y: 0,
		Width: scrollbarThickness, Height: scr.Height - scrollbarThickness,
	}, 0, xserverAttrs("vscroll"))
	if err != nil {
		return err
	}
	for _, id := range []xproto.XID{h, v} {
		if err := wm.conn.SelectInput(id, xproto.ButtonPressMask|xproto.ButtonReleaseMask); err != nil {
			return err
		}
		if err := wm.conn.MapWindow(id); err != nil {
			return err
		}
	}
	scr.hscroll, scr.vscroll = h, v
	wm.updateScrollbars(scr)
	return nil
}

// handleScrollbarPress pans proportionally to the click position.
func (wm *WM) handleScrollbarPress(scr *Screen, win xproto.XID, x, y int) {
	switch win {
	case scr.hscroll:
		length := scr.Width - scrollbarThickness
		if length <= 0 {
			return
		}
		target := x * scr.DesktopW / length
		wm.PanTo(scr, target-scr.Width/2, scr.PanY)
	case scr.vscroll:
		length := scr.Height - scrollbarThickness
		if length <= 0 {
			return
		}
		target := y * scr.DesktopH / length
		wm.PanTo(scr, scr.PanX, target-scr.Height/2)
	}
}

// updateScrollbars refreshes the scrollbar thumb labels (rendered as
// window labels; a real implementation would draw a thumb rectangle).
func (wm *WM) updateScrollbars(scr *Screen) {
	if scr.hscroll != xproto.None {
		wm.check(nil, "hscroll label", wm.conn.SetWindowLabel(scr.hscroll,
			fmt.Sprintf("h:%d/%d", scr.PanX, scr.DesktopW)))
	}
	if scr.vscroll != xproto.None {
		wm.check(nil, "vscroll label", wm.conn.SetWindowLabel(scr.vscroll,
			fmt.Sprintf("v:%d/%d", scr.PanY, scr.DesktopH)))
	}
}
