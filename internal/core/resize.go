package core

import (
	"strings"

	"repro/internal/objects"
	"repro/internal/xproto"
)

// Resize corners (paper Figure 1: "Swm*panel.openLook.resizeCorners:
// True"): decorations may request four corner handles on the frame.
// Dragging a handle resizes the client interactively, anchored at the
// opposite corner.

const cornerSize = 8

// corner indices.
const (
	cornerNW = iota
	cornerNE
	cornerSW
	cornerSE
)

type resizeState struct {
	client *Client
	corner int
	// anchor is the frame corner that stays put, in parent coords.
	anchorX, anchorY int
}

// wantsResizeCorners checks the decoration panel's resizeCorners
// resource.
func (wm *WM) wantsResizeCorners(c *Client) bool {
	v, ok := wm.ctx(c.scr).Lookup(objects.KindPanel, c.decoration, "resizeCorners")
	return ok && strings.EqualFold(v, "true")
}

// createResizeCorners attaches the four handles to a client's frame.
func (wm *WM) createResizeCorners(c *Client) {
	if !wm.wantsResizeCorners(c) {
		return
	}
	for corner := cornerNW; corner <= cornerSE; corner++ {
		r := cornerRect(c.FrameRect.Width, c.FrameRect.Height, corner)
		attrs := xserverAttrs("corner")
		attrs.Class = xproto.InputOnly // invisible, input-catching handle
		win, err := wm.conn.CreateWindow(c.frame.Window, r, 0, attrs)
		if err != nil {
			wm.check(nil, "create resize corner", err)
			continue
		}
		if err := wm.conn.SelectInput(win,
			xproto.ButtonPressMask|xproto.ButtonReleaseMask); err != nil {
			// A handle that cannot see input is useless; don't leak it.
			wm.check(nil, "corner input", err)
			wm.destroyWindow(win)
			continue
		}
		if err := wm.conn.MapWindow(win); err != nil {
			wm.check(nil, "map corner", err)
			wm.destroyWindow(win)
			continue
		}
		wm.check(c, "raise corner", wm.conn.RaiseWindow(win))
		c.corners[corner] = win
		wm.byObjWin[win] = objRef{client: c, screen: c.scr, corner: corner + 1}
	}
}

func cornerRect(frameW, frameH, corner int) xproto.Rect {
	r := xproto.Rect{Width: cornerSize, Height: cornerSize}
	if corner == cornerNE || corner == cornerSE {
		r.X = frameW - cornerSize
	}
	if corner == cornerSW || corner == cornerSE {
		r.Y = frameH - cornerSize
	}
	return r
}

// syncResizeCorners repositions the handles after a frame resize.
func (wm *WM) syncResizeCorners(c *Client) {
	for corner, win := range c.corners {
		if win == xproto.None {
			continue
		}
		r := cornerRect(c.FrameRect.Width, c.FrameRect.Height, corner)
		wm.check(c, "move corner", wm.conn.MoveWindow(win, r.X, r.Y))
		wm.check(c, "raise corner", wm.conn.RaiseWindow(win))
	}
}

// dropResizeCorners forgets the handle windows (they die with the
// frame).
func (wm *WM) dropResizeCorners(c *Client) {
	for corner, win := range c.corners {
		if win != xproto.None {
			delete(wm.byObjWin, win)
		}
		c.corners[corner] = xproto.None
	}
}

// startCornerResize begins an interactive resize from a handle.
func (wm *WM) startCornerResize(c *Client, corner int) {
	ax, ay := c.FrameRect.X, c.FrameRect.Y
	// The anchor is the corner opposite the handle.
	if corner == cornerNW || corner == cornerSW {
		ax += c.FrameRect.Width
	}
	if corner == cornerNW || corner == cornerNE {
		ay += c.FrameRect.Height
	}
	wm.resizing = &resizeState{client: c, corner: corner, anchorX: ax, anchorY: ay}
	wm.check(c, "grab pointer", wm.conn.GrabPointer(c.scr.Root,
		xproto.PointerMotionMask|xproto.ButtonReleaseMask))
}

// continueCornerResize applies the pointer position to the resize in
// progress; final commits on release.
func (wm *WM) continueCornerResize(rootX, rootY int, release bool) {
	rs := wm.resizing
	if rs == nil {
		return
	}
	c := rs.client
	// Pointer in parent coordinates.
	px, py := rootX, rootY
	if !c.Sticky && c.scr.Desktop != xproto.None {
		px += c.scr.PanX
		py += c.scr.PanY
	}
	x1, x2 := rs.anchorX, px
	if x2 < x1 {
		x1, x2 = x2, x1
	}
	y1, y2 := rs.anchorY, py
	if y2 < y1 {
		y1, y2 = y2, y1
	}
	extraW := c.FrameRect.Width - c.clientW
	extraH := c.FrameRect.Height - c.clientH
	w := x2 - x1 - extraW
	h := y2 - y1 - extraH
	if w < 8 {
		w = 8
	}
	if h < 8 {
		h = 8
	}
	wm.resizeClient(c, w, h)
	if _, ok := wm.clients[c.Win]; !ok {
		// The client died mid-resize and was unmanaged (which also
		// cleared wm.resizing); just release the grab.
		wm.conn.UngrabPointer()
		return
	}
	wm.moveFrame(c, x1, y1)
	wm.syncResizeCorners(c)
	if release {
		wm.resizing = nil
		wm.conn.UngrabPointer()
	}
}
