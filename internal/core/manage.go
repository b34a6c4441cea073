package core

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/geom"
	"repro/internal/icccm"
	"repro/internal/objects"
	"repro/internal/session"
	"repro/internal/xproto"
	"repro/internal/xserver"
)

// Manage adopts a client window: reads its ICCCM properties, chooses and
// builds a decoration panel, reparents the client into it, places the
// frame on the Virtual Desktop (or the root for sticky windows), applies
// any session restart hint, and maps everything. It returns the managed
// client.
func (wm *WM) Manage(win xproto.XID) (*Client, error) {
	if c, ok := wm.clients[win]; ok {
		return c, nil
	}
	scr := wm.screenOf(win)
	if scr == nil {
		return nil, fmt.Errorf("core: window 0x%x has no screen", uint32(win))
	}

	// ICCCM properties, one GetProperty each, in a fixed order that
	// seeded fault schedules count on. Every getter has the uniform
	// (value, ok, error) contract and returns the zero value unless ok:
	// ok=false with a nil error is the common "property not set" case
	// and falls back silently; a non-nil error is a failed request or a
	// malformed value and goes through check like any other (the
	// property is then treated as absent). The shape and geometry reads
	// follow; all reads come before any mutation.
	c := &Client{wm: wm, scr: scr, Win: win, State: xproto.NormalState}
	var ok bool
	var err error
	c.Name, _, err = icccm.GetName(wm.conn, win)
	wm.check(nil, "read WM_NAME", err)
	c.IconName, ok, err = icccm.GetIconName(wm.conn, win)
	wm.check(nil, "read WM_ICON_NAME", err)
	if !ok {
		c.IconName = c.Name
	}
	c.Class, _, err = icccm.GetClass(wm.conn, win)
	wm.check(nil, "read WM_CLASS", err)
	c.Command, _, err = icccm.GetCommand(wm.conn, win)
	wm.check(nil, "read WM_COMMAND", err)
	c.Machine, _, err = icccm.GetClientMachine(wm.conn, win)
	wm.check(nil, "read WM_CLIENT_MACHINE", err)
	hints, hasHints, err := icccm.GetHints(wm.conn, win)
	wm.check(nil, "read WM_HINTS", err)
	normal, hasNormal, err := icccm.GetNormalHints(wm.conn, win)
	wm.check(nil, "read WM_NORMAL_HINTS", err)
	c.Transient, _, err = icccm.GetTransientFor(wm.conn, win)
	wm.check(nil, "read WM_TRANSIENT_FOR", err)
	shaped, _, shapeErr := wm.conn.ShapeQuery(win)
	if shapeErr == nil {
		c.Shaped = shaped
	}
	g, err := wm.conn.GetGeometry(win)

	// Sticky start-up (paper §6.2): swm*xclock*sticky: True.
	lookupCtx := wm.ctx(scr)
	if v, ok := lookupCtx.LookupClient(c.Class.Class, c.Class.Instance, "sticky"); ok {
		c.Sticky = v == "True" || v == "true"
	}

	// Client geometry as requested. Unless the window is confirmed
	// gone, a failure is transient; retry once before giving up (the
	// read above counts as the first attempt).
	if err != nil && !wm.confirmDead(win, err) {
		wm.logf("manage geometry 0x%x: %v (retrying)", uint32(win), err)
		g, err = wm.conn.GetGeometry(win)
	}
	if err != nil {
		return nil, err
	}
	c.clientW, c.clientH = g.Rect.Width, g.Rect.Height

	// Session restart hint (paper §7): match WM_COMMAND (+ machine),
	// restore size, location, icon location, sticky and state.
	var sessHint *sessionPlacement
	if len(c.Command) > 0 && c.Transient == xproto.None {
		h, ok := wm.hintTable.Match(c.Command, c.Machine)
		if !ok {
			wm.metrics.hintMisses.Inc()
		} else {
			wm.metrics.hintHits.Inc()
			sp := sessionPlacement{hint: h}
			if hg, err := h.ParseGeometry(); err == nil {
				sp.geom = hg
				sp.valid = true
			}
			if h.IconGeometry != "" {
				if ig, err := geom.Parse(h.IconGeometry); err == nil && ig.HasPosition {
					c.iconX, c.iconY = ig.X, ig.Y
					c.hasIconPos = true
				}
			}
			c.Sticky = c.Sticky || h.Sticky
			sessHint = &sp
		}
	}
	if sessHint != nil && sessHint.valid && sessHint.geom.HasSize {
		c.clientW, c.clientH = sessHint.geom.Width, sessHint.geom.Height
		wm.check(nil, "session resize", wm.conn.ResizeWindow(win, c.clientW, c.clientH))
	}

	// Icon position from WM_HINTS when the session has none.
	if !c.hasIconPos && hasHints && hints.Flags&icccm.IconPositionHint != 0 {
		c.iconX, c.iconY = hints.IconX, hints.IconY
		c.hasIconPos = true
	}

	// Build the decoration.
	if err := wm.decorate(c); err != nil {
		return nil, err
	}

	// Placement (paper §6.3.2): session hint > USPosition (absolute
	// desktop coordinates) > PPosition (viewport-relative) > cascade.
	fx, fy := wm.placeClient(c, sessHint, normal, hasNormal, g.Rect)
	c.FrameRect.X, c.FrameRect.Y = fx, fy

	parent := wm.frameParent(c)
	if err := objects.Realize(wm.conn, c.frame, parent, fx, fy); err != nil {
		wm.destroyTree(c.frame)
		return nil, err
	}
	c.FrameRect = xproto.Rect{X: fx, Y: fy, Width: c.frame.Rect.Width, Height: c.frame.Rect.Height}

	// Past this point a server-side frame exists. On failure, undo
	// whatever was done (reparent, save-set) and destroy the frame so a
	// transient error leaks nothing and the manage can be retried.
	savedSet, reparented := false, false
	fail := func(err error) (*Client, error) {
		if reparented {
			rx, ry := wm.clientRootPos(c)
			wm.check(nil, "manage rollback: reparent", wm.conn.ReparentWindow(win, scr.Root, rx, ry))
		}
		if savedSet {
			wm.check(nil, "manage rollback: save-set", wm.conn.ChangeSaveSet(win, false))
		}
		wm.destroyTree(c.frame)
		return nil, err
	}
	// step retries a required manage request once on a transient
	// failure. Only a confirmed death of win — the client dying under
	// us — is final.
	step := func(op string, f func() error) error {
		err := f()
		if err == nil || wm.confirmDead(win, err) {
			return err
		}
		wm.logf("manage %s 0x%x: %v (retrying)", op, uint32(win), err)
		return f()
	}

	// The setup sequence: save-set insertion (rescue the client if we
	// die, ICCCM / X save-set), border strip (the decoration replaces
	// the client's border), reparent into the client slot, slot input
	// selection (configure requests from the client must keep flowing
	// through the WM, so the slot — the client's new parent — selects
	// SubstructureRedirect, exactly as twm-style WMs do on their
	// frames), and the two maps. The first op that fails twice stops the
	// sequence; the rollback flags record what the server has done.
	if err := step("save-set", func() error { return wm.conn.ChangeSaveSet(win, true) }); err != nil {
		return fail(err)
	}
	savedSet = true
	if g.BorderWidth != 0 {
		if err := step("strip border", func() error {
			return wm.conn.ConfigureWindow(win, xproto.WindowChanges{
				Mask: xproto.CWBorderWidth, BorderWidth: 0,
			})
		}); err != nil {
			return fail(err)
		}
	}
	if err := step("reparent", func() error {
		return wm.conn.ReparentWindow(win, c.clientSlot.Window, 0, 0)
	}); err != nil {
		return fail(err)
	}
	reparented = true
	if err := step("slot input", func() error {
		return wm.conn.SelectInput(c.clientSlot.Window,
			xproto.SubstructureRedirectMask|xproto.SubstructureNotifyMask)
	}); err != nil {
		return fail(err)
	}
	if err := step("map slot", func() error { return wm.conn.MapWindow(c.clientSlot.Window) }); err != nil {
		return fail(err)
	}
	if err := step("map client", func() error { return wm.conn.MapWindow(win) }); err != nil {
		return fail(err)
	}

	// Watch the client. SelectInput replaces this connection's mask, so
	// preserve anything already selected (the panner content window, a
	// WM-owned client, selects button/motion events). With the
	// focusFollowsMouse resource, the pointer entering the client
	// focuses it, so the WM watches crossings too.
	prevAttrs, _ := wm.conn.GetWindowAttributes(win) //swm:ok on failure the zero mask is merged, which is the pre-query behavior
	clientMask := prevAttrs.YourEventMask | xproto.PropertyChangeMask | xproto.StructureNotifyMask
	if v, ok := wm.ctx(scr).LookupGlobal("focusFollowsMouse"); ok && strings.EqualFold(v, "true") {
		clientMask |= xproto.EnterWindowMask
	}
	if err := step("client input", func() error { return wm.conn.SelectInput(win, clientMask) }); err != nil {
		return fail(err)
	}

	// SWM_ROOT (paper §6.3.1): tell toolkits which window is their
	// effective root so popups place correctly on the Virtual Desktop.
	wm.setSwmRoot(c)
	wm.applyClientShapeToFrame(c)

	wm.clients[win] = c
	wm.noteManaged(win)
	wm.createResizeCorners(c)
	wm.byFrame[c.frame.Window] = c
	wm.registerObjectWindows(c)
	wm.applyNameLabels(c)

	// Initial state: iconic via WM_HINTS or session.
	wantIconic := hasHints && hints.Flags&icccm.StateHint != 0 && hints.InitialState == xproto.IconicState
	if sessHint != nil && sessHint.hint.StateNumber() == xproto.IconicState {
		wantIconic = true
	}
	if wantIconic {
		if err := wm.Iconify(c); err != nil {
			return nil, err
		}
	} else {
		wm.check(c, "map frame", wm.conn.MapWindow(c.frame.Window))
		wm.check(c, "set WM_STATE normal", icccm.SetState(wm.conn, win, icccm.State{State: xproto.NormalState}))
		c.State = xproto.NormalState
	}

	wm.sendSyntheticConfigure(c)
	wm.markPannerDirty(scr)
	if _, still := wm.clients[win]; !still {
		// A post-registration request hit the death race and the client
		// was already unmanaged; it no longer exists for the caller. The
		// error names no request (MajorNone).
		return nil, &xproto.XError{Code: xproto.BadWindow, Resource: win}
	}
	return c, nil
}

type sessionPlacement struct {
	hint  session.Hint
	geom  geom.Geometry
	valid bool
}

// placeClient decides the frame's position in parent coordinates.
func (wm *WM) placeClient(c *Client, sess *sessionPlacement, normal icccm.NormalHints, hasNormal bool, req xproto.Rect) (int, int) {
	scr := c.scr
	// The frame is larger than the client; requested positions refer to
	// the client window, so offset by the client slot position.
	slotX, slotY := wm.clientSlotOffset(c)

	if sess != nil && sess.valid && sess.geom.HasPosition {
		// Session geometry is saved in desktop coordinates.
		return sess.geom.X - slotX, sess.geom.Y - slotY
	}
	if hasNormal && normal.Flags&icccm.USPosition != 0 {
		// USPosition: "the window is placed at the absolute location
		// requested by the user, even if the coordinates on the desktop
		// are not currently visible" (§6.3.2).
		x, y := normal.X, normal.Y
		if c.Sticky || scr.Desktop == xproto.None {
			return x - slotX, y - slotY
		}
		return x - slotX, y - slotY
	}
	if hasNormal && normal.Flags&icccm.PPosition != 0 {
		// PPosition: coordinates are relative to the current visible
		// portion of the Virtual Desktop.
		x, y := normal.X, normal.Y
		if c.Sticky || scr.Desktop == xproto.None {
			return x - slotX, y - slotY
		}
		return scr.PanX + x - slotX, scr.PanY + y - slotY
	}
	// Transients with no user-specified position center over their
	// owner (a bare window position does not outrank this: dialogs keep
	// stale coordinates across withdraw/remap cycles).
	if c.Transient != xproto.None {
		if owner, ok := wm.clients[c.Transient]; ok {
			x := owner.FrameRect.X + (owner.FrameRect.Width-c.frame.Rect.Width)/2
			y := owner.FrameRect.Y + (owner.FrameRect.Height-c.frame.Rect.Height)/2
			return x, y
		}
	}
	if req.X != 0 || req.Y != 0 {
		// A bare window position set at CreateWindow time behaves like
		// PPosition for pre-ICCCM clients.
		if c.Sticky || scr.Desktop == xproto.None {
			return req.X, req.Y
		}
		return scr.PanX + req.X, scr.PanY + req.Y
	}
	// Default placement: cascade within the current viewport.
	const step = 32
	x := scr.placeCursorX + step
	y := scr.placeCursorY + step
	if x+c.frame.Rect.Width > scr.Width || y+c.frame.Rect.Height > scr.Height {
		x, y = step, step
	}
	scr.placeCursorX, scr.placeCursorY = x, y
	if c.Sticky || scr.Desktop == xproto.None {
		return x, y
	}
	return scr.PanX + x, scr.PanY + y
}

// decorate selects and builds the decoration object tree for a client.
// The resolved tree comes from the database's memo when an identical
// lookup context was built before; only the decoration-name query and
// the deep clone run per client (see proto.go for the keying argument).
func (wm *WM) decorate(c *Client) error {
	ctx := wm.clientCtx(c.scr, c.Shaped, c.Sticky)
	if c.Transient != xproto.None {
		ctx.Prefixes = append(ctx.Prefixes, "transient")
	}
	name, ok := ctx.LookupClient(c.Class.Class, c.Class.Instance, "decoration")
	if !ok {
		name = "default"
	}
	var buf [64]byte
	proto, hit, evicted, err := wm.db.Memo(protoKey(buf[:0], c, name), func() (any, error) {
		return objects.Build(ctx, name)
	})
	if hit {
		wm.metrics.protoHits.Inc()
	} else {
		wm.metrics.protoMisses.Inc()
	}
	if evicted {
		wm.metrics.protoEvictions.Inc()
	}
	var tree *objects.Object
	if err != nil {
		// Fall back to a minimal frame: bare client slot panel. The memo
		// keeps no failed build, so a later resource fix or a transient
		// cause gets a fresh attempt.
		tree = &objects.Object{Kind: objects.KindPanel, Name: "swmFallback"}
		slot := &objects.Object{Kind: objects.KindPanel, Name: "client", Parent: tree}
		tree.Children = []*objects.Object{slot}
		wm.logf("decoration %q: %v (using fallback)", name, err)
	} else {
		tree = proto.(*objects.Object).Clone()
	}
	slot := tree.Find("client")
	if slot == nil {
		return fmt.Errorf("core: decoration panel %q has no client panel", name)
	}
	c.frame = tree
	c.clientSlot = slot
	c.decoration = name
	objects.Layout(tree, c.clientW, c.clientH)
	return nil
}

// redecorate tears down and rebuilds the decoration (used by
// f.stick/f.unstick, since decorations may depend on stickiness, and on
// ShapeNotify).
func (wm *WM) redecorate(c *Client) error {
	// Detach the client from the old frame first. Reparenting a mapped
	// window unmaps and remaps it; those UnmapNotify events are ours.
	rx, ry := wm.clientRootPos(c)
	if attrs, err := wm.conn.GetWindowAttributes(c.Win); err == nil && attrs.MapState != xproto.IsUnmapped {
		c.ignoreUnmaps++
	}
	if !wm.check(c, "redecorate: detach client", wm.conn.ReparentWindow(c.Win, c.scr.Root, rx, ry)) {
		return nil
	}
	wm.unregisterObjectWindows(c)
	wm.dropResizeCorners(c)
	delete(wm.byFrame, c.frame.Window)
	wm.destroyTree(c.frame)

	if err := wm.decorate(c); err != nil {
		return err
	}
	parent := wm.frameParent(c)
	if err := objects.Realize(wm.conn, c.frame, parent, c.FrameRect.X, c.FrameRect.Y); err != nil {
		return err
	}
	c.FrameRect.Width = c.frame.Rect.Width
	c.FrameRect.Height = c.frame.Rect.Height
	if attrs, err := wm.conn.GetWindowAttributes(c.Win); err == nil && attrs.MapState != xproto.IsUnmapped {
		c.ignoreUnmaps++
	}
	if err := wm.conn.ReparentWindow(c.Win, c.clientSlot.Window, 0, 0); err != nil {
		return err
	}
	if err := wm.conn.SelectInput(c.clientSlot.Window,
		xproto.SubstructureRedirectMask|xproto.SubstructureNotifyMask); err != nil {
		return err
	}
	if err := wm.conn.MapWindow(c.clientSlot.Window); err != nil {
		return err
	}
	if err := wm.conn.MapWindow(c.Win); err != nil {
		return err
	}
	wm.byFrame[c.frame.Window] = c
	wm.registerObjectWindows(c)
	wm.applyNameLabels(c)
	wm.applyClientShapeToFrame(c)
	if c.State == xproto.NormalState {
		if err := wm.conn.MapWindow(c.frame.Window); err != nil {
			return err
		}
	}
	wm.setSwmRoot(c)
	wm.createResizeCorners(c)
	wm.sendSyntheticConfigure(c)
	return nil
}

// Unmanage withdraws a client: the window is reparented back to the
// root (if it still exists) and the decoration destroyed.
func (wm *WM) Unmanage(c *Client, clientGone bool) {
	if _, ok := wm.clients[c.Win]; !ok {
		return
	}
	// Deregister first: error classification during this teardown must
	// never recurse into a second unmanage of the same client.
	delete(wm.clients, c.Win)
	wm.noteUnmanaged(c.Win)
	if !clientGone {
		// Both requests retry once on a transient failure: a client left
		// inside the frame would die with it, and a stale save-set entry
		// would resurrect the withdrawn window when the client's
		// connection closes. BadWindow means the client is really gone,
		// in which case neither matters.
		rx, ry := wm.clientRootPos(c)
		if err := wm.conn.ReparentWindow(c.Win, c.scr.Root, rx, ry); err != nil {
			wm.logf("unmanage: reparent to root: %v (retrying)", err)
			if !errors.Is(err, xproto.ErrBadWindow) {
				wm.check(nil, "unmanage: reparent retry", wm.conn.ReparentWindow(c.Win, c.scr.Root, rx, ry))
			}
		}
		if err := wm.conn.ChangeSaveSet(c.Win, false); err != nil {
			wm.logf("unmanage: save-set: %v (retrying)", err)
			if !errors.Is(err, xproto.ErrBadWindow) {
				wm.check(nil, "unmanage: save-set retry", wm.conn.ChangeSaveSet(c.Win, false))
			}
		}
		wm.check(nil, "unmanage: clear SWM_ROOT", wm.conn.DeleteProperty(c.Win, wm.conn.InternAtom("SWM_ROOT")))
	}
	if c.icon != nil {
		wm.removeIcon(c)
	}
	wm.unregisterObjectWindows(c)
	wm.dropResizeCorners(c)
	delete(wm.byFrame, c.frame.Window)
	wm.destroyTree(c.frame)
	if wm.focus == c {
		wm.focus = nil
	}
	if wm.moveState != nil && wm.moveState.client == c {
		wm.moveState = nil
	}
	if wm.resizing != nil && wm.resizing.client == c {
		wm.resizing = nil
	}
	wm.markPannerDirty(c.scr)
}

// registerObjectWindows indexes every decoration object window for
// binding dispatch.
func (wm *WM) registerObjectWindows(c *Client) {
	c.frame.Walk(func(o *objects.Object) {
		if o.Window != xproto.None {
			wm.byObjWin[o.Window] = objRef{client: c, screen: c.scr, obj: o}
		}
	})
}

func (wm *WM) unregisterObjectWindows(c *Client) {
	c.frame.Walk(func(o *objects.Object) {
		if o.Window != xproto.None {
			delete(wm.byObjWin, o.Window)
		}
	})
}

// applyNameLabels pushes WM_NAME into "name" objects and WM_ICON_NAME
// into "iconname" objects (paper §4.1.1: "a button or text object called
// name ... displays the WM_NAME property of the client").
func (wm *WM) applyNameLabels(c *Client) {
	changed := false
	if o := c.frame.Find("name"); o != nil && c.Name != "" {
		o.SetLabel(c.Name)
		changed = true
	}
	if changed {
		objects.Layout(c.frame, c.clientW, c.clientH)
		wm.check(c, "sync name labels", objects.SyncGeometry(wm.conn, c.frame))
		c.FrameRect.Width = c.frame.Rect.Width
		c.FrameRect.Height = c.frame.Rect.Height
	}
	if c.icon != nil {
		if o := c.icon.tree.Find("iconname"); o != nil && c.IconName != "" {
			o.SetLabel(c.IconName)
			objects.Layout(c.icon.tree, 0, 0)
			wm.check(c, "sync icon labels", objects.SyncGeometry(wm.conn, c.icon.tree))
		}
	}
}

// frameParent returns the window the client's frame lives under:
// the Virtual Desktop normally, the real root for sticky windows
// (paper §6.2) or when the desktop is disabled.
func (wm *WM) frameParent(c *Client) xproto.XID {
	if c.Sticky || c.scr.Desktop == xproto.None {
		return c.scr.Root
	}
	return wm.desktopWindow(c.scr, c.scr.currentDesktop)
}

// clientSlotOffset returns the client slot position within the frame.
func (wm *WM) clientSlotOffset(c *Client) (int, int) {
	if c.clientSlot == nil {
		return 0, 0
	}
	return c.clientSlot.Rect.X, c.clientSlot.Rect.Y
}

// clientRootPos computes the client window's current real-root-relative
// position: frames on the desktop shift by the pan offset.
func (wm *WM) clientRootPos(c *Client) (int, int) {
	slotX, slotY := wm.clientSlotOffset(c)
	x := c.FrameRect.X + slotX
	y := c.FrameRect.Y + slotY
	if !c.Sticky && c.scr.Desktop != xproto.None {
		x -= c.scr.PanX
		y -= c.scr.PanY
	}
	return x, y
}

// setSwmRoot writes the SWM_ROOT property: "When swm reparents a window
// it places a property on the window indicating the window ID of its
// root window. This will be the window ID of the real root window or
// the ID of the Virtual Desktop window" (§6.3.1).
func (wm *WM) setSwmRoot(c *Client) {
	root := wm.frameParent(c)
	data := []byte{
		byte(root), byte(root >> 8), byte(root >> 16), byte(root >> 24),
	}
	wm.check(c, "set SWM_ROOT", wm.conn.ChangeProperty(c.Win, wm.conn.InternAtom("SWM_ROOT"),
		wm.conn.InternAtom("WINDOW"), 32, xproto.PropModeReplace, data))
}

// SwmRoot reads a window's SWM_ROOT property (what OI-style toolkits
// use to position popups).
func SwmRoot(conn *xserver.Conn, win xproto.XID) (xproto.XID, bool) {
	p, ok, err := conn.GetProperty(win, conn.InternAtom("SWM_ROOT"))
	if err != nil || !ok || len(p.Data) < 4 {
		return xproto.None, false
	}
	return xproto.XID(uint32(p.Data[0]) | uint32(p.Data[1])<<8 |
		uint32(p.Data[2])<<16 | uint32(p.Data[3])<<24), true
}

// sendSyntheticConfigure tells the client its root-relative geometry
// (ICCCM §4.1.5).
func (wm *WM) sendSyntheticConfigure(c *Client) {
	rx, ry := wm.clientRootPos(c)
	wm.check(c, "synthetic ConfigureNotify", icccm.SendSyntheticConfigureNotify(wm.conn, c.Win, rx, ry, c.clientW, c.clientH))
}

// moveFrame moves the frame in parent coordinates and informs the
// client of its new root-relative position.
func (wm *WM) moveFrame(c *Client, x, y int) {
	c.FrameRect.X, c.FrameRect.Y = x, y
	wm.check(c, "move frame", wm.conn.MoveWindow(c.frame.Window, x, y))
	wm.sendSyntheticConfigure(c)
	wm.markPannerDirty(c.scr)
}

// resizeClient resizes the client window and rebuilds the frame layout
// around the new size.
func (wm *WM) resizeClient(c *Client, w, h int) {
	if w <= 0 || h <= 0 {
		return
	}
	c.clientW, c.clientH = w, h
	if !wm.check(c, "resize client", wm.conn.ResizeWindow(c.Win, w, h)) {
		return // the client died; check already unmanaged it
	}
	objects.Layout(c.frame, w, h)
	wm.check(c, "sync frame geometry", objects.SyncGeometry(wm.conn, c.frame))
	wm.check(c, "resize frame", wm.conn.MoveResizeWindow(c.frame.Window, xproto.Rect{
		X: c.FrameRect.X, Y: c.FrameRect.Y,
		Width: c.frame.Rect.Width, Height: c.frame.Rect.Height,
	}))
	c.FrameRect.Width = c.frame.Rect.Width
	c.FrameRect.Height = c.frame.Rect.Height
	wm.syncResizeCorners(c)
	wm.sendSyntheticConfigure(c)
	wm.markPannerDirty(c.scr)
}

// screenOf finds the Screen whose root is an ancestor of win.
func (wm *WM) screenOf(win xproto.XID) *Screen {
	root, _, _, err := wm.conn.QueryTree(win)
	if err != nil {
		return nil
	}
	for _, scr := range wm.screens {
		if scr.Root == root {
			return scr
		}
	}
	return nil
}

// handleConfigureRequest honours a client's configure request
// (ICCCM-compliant WMs must respond even if they modify the result).
func (wm *WM) handleConfigureRequest(ev xproto.Event) {
	c, managed := wm.clients[ev.Subwindow]
	if !managed {
		// Unmanaged window: apply the request verbatim.
		wm.check(nil, "configure unmanaged", wm.conn.ConfigureWindow(ev.Subwindow, xproto.WindowChanges{
			Mask: ev.ValueMask, X: ev.GX, Y: ev.GY,
			Width: ev.Width, Height: ev.Height,
			BorderWidth: ev.BorderWidth, Sibling: ev.Sibling,
			StackMode: ev.StackMode,
		}))
		return
	}
	if ev.ValueMask&(xproto.CWWidth|xproto.CWHeight) != 0 {
		w, h := c.clientW, c.clientH
		if ev.ValueMask&xproto.CWWidth != 0 {
			w = ev.Width
		}
		if ev.ValueMask&xproto.CWHeight != 0 {
			h = ev.Height
		}
		wm.resizeClient(c, w, h)
		if _, ok := wm.clients[c.Win]; !ok {
			return // the resize hit the death race; c is unmanaged
		}
	}
	if ev.ValueMask&(xproto.CWX|xproto.CWY) != 0 {
		slotX, slotY := wm.clientSlotOffset(c)
		x, y := c.FrameRect.X, c.FrameRect.Y
		if ev.ValueMask&xproto.CWX != 0 {
			x = ev.GX - slotX
			if !c.Sticky && c.scr.Desktop != xproto.None {
				x += c.scr.PanX
			}
		}
		if ev.ValueMask&xproto.CWY != 0 {
			y = ev.GY - slotY
			if !c.Sticky && c.scr.Desktop != xproto.None {
				y += c.scr.PanY
			}
		}
		wm.moveFrame(c, x, y)
	}
	if ev.ValueMask&xproto.CWStackMode != 0 {
		switch ev.StackMode {
		case xproto.Above:
			wm.check(c, "raise frame", wm.conn.RaiseWindow(c.frame.Window))
		case xproto.Below:
			wm.check(c, "lower frame", wm.conn.LowerWindow(c.frame.Window))
		}
	}
	wm.sendSyntheticConfigure(c)
}

// relayoutFrame re-runs layout after a dynamic object change (relabel,
// rebind) and pushes the new geometry to the server.
func (wm *WM) relayoutFrame(c *Client) {
	objects.Layout(c.frame, c.clientW, c.clientH)
	wm.check(c, "sync frame geometry", objects.SyncGeometry(wm.conn, c.frame))
	wm.check(c, "resize frame", wm.conn.MoveResizeWindow(c.frame.Window, xproto.Rect{
		X: c.FrameRect.X, Y: c.FrameRect.Y,
		Width: c.frame.Rect.Width, Height: c.frame.Rect.Height,
	}))
	c.FrameRect.Width = c.frame.Rect.Width
	c.FrameRect.Height = c.frame.Rect.Height
}

// MoveClientTo places the client's frame at (x, y) in parent
// coordinates (desktop coordinates normally; root coordinates when
// sticky). Programmatic counterpart of the interactive f.move.
func (wm *WM) MoveClientTo(c *Client, x, y int) {
	wm.moveFrame(c, x, y)
}

// applyClientShapeToFrame propagates a shaped client's bounding region
// to a shaped decoration frame: the frame's shape becomes the union of
// the non-client objects plus the client's own shape, offset into frame
// coordinates. This is what makes the shapeit decoration truly
// invisible around oclock/xeyes (§5.1).
func (wm *WM) applyClientShapeToFrame(c *Client) {
	if !c.Shaped || c.frame == nil || !c.frame.Attrs.Shape {
		return
	}
	shaped, clientRects, err := wm.conn.ShapeQuery(c.Win)
	if err != nil || !shaped {
		return
	}
	slotX, slotY := wm.clientSlotOffset(c)
	var rects []xproto.Rect
	for _, o := range c.frame.Children {
		if o == c.clientSlot {
			continue
		}
		rects = append(rects, o.Rect)
	}
	for _, r := range clientRects {
		rects = append(rects, xproto.Rect{
			X: r.X + slotX, Y: r.Y + slotY, Width: r.Width, Height: r.Height,
		})
	}
	wm.check(c, "shape frame", wm.conn.ShapeCombineRectangles(c.frame.Window, rects))
	// The client slot inherits the client's shape too, so hit-testing
	// inside the frame matches the visible pixels.
	wm.check(c, "shape client slot", wm.conn.ShapeCombineRectangles(c.clientSlot.Window, clientRects))
}
