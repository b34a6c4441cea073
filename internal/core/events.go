package core

import (
	"repro/internal/bindings"
	"repro/internal/icccm"
	"repro/internal/objects"
	"repro/internal/swmproto"
	"repro/internal/xproto"
)

// handleEvent is the WM's central dispatch.
func (wm *WM) handleEvent(ev xproto.Event) {
	wm.countEvent(ev.Type)
	switch ev.Type {
	case xproto.MapRequest:
		wm.handleMapRequest(ev)
	case xproto.ConfigureRequest:
		wm.handleConfigureRequest(ev)
	case xproto.DestroyNotify:
		wm.handleDestroyNotify(ev)
	case xproto.UnmapNotify:
		wm.handleUnmapNotify(ev)
	case xproto.PropertyNotify:
		wm.handlePropertyNotify(ev)
	case xproto.ButtonPress:
		wm.handleButtonPress(ev)
	case xproto.ButtonRelease:
		wm.handleButtonRelease(ev)
	case xproto.MotionNotify:
		wm.handleMotion(ev)
	case xproto.KeyPress, xproto.KeyRelease:
		wm.handleKey(ev)
	case xproto.EnterNotify, xproto.LeaveNotify:
		wm.handleCrossing(ev)
	case xproto.ShapeNotify:
		wm.handleShapeNotify(ev)
	}
}

func (wm *WM) handleMapRequest(ev xproto.Event) {
	win := ev.Subwindow
	if c, ok := wm.clients[win]; ok {
		// Re-map of a managed window: deiconify (ICCCM §4.1.4).
		if err := wm.Deiconify(c); err != nil {
			wm.logf("deiconify on MapRequest: %v", err)
		}
		return
	}
	if wm.ownsWindow(win) {
		wm.check(nil, "map furniture", wm.conn.MapWindow(win))
		return
	}
	_, err := wm.Manage(win)
	if err != nil && !wm.confirmDead(win, err) {
		// Transient failure (anything but a confirmed "this window is
		// gone"): the manage rolled itself back cleanly, so try once
		// more before giving up on decoration.
		wm.logf("manage 0x%x: %v (retrying)", uint32(win), err)
		_, err = wm.Manage(win)
	}
	if err != nil {
		wm.logf("manage 0x%x: %v", uint32(win), err)
		if !wm.confirmDead(win, err) {
			// Map it anyway so the client is not locked out.
			wm.check(nil, "map unmanaged", wm.conn.MapWindow(win))
		}
	}
}

func (wm *WM) handleDestroyNotify(ev xproto.Event) {
	// SubstructureNotify events carry the destroyed window in Subwindow
	// with the parent in Window; StructureNotify events carry it in
	// Window with Subwindow unset. When Subwindow is set it identifies
	// the dead window — never fall back to Window then, or a
	// DestroyNotify for a frame/slot child would unmanage the parent's
	// client even though that client window is still alive.
	dead := ev.Subwindow
	if dead == xproto.None {
		dead = ev.Window
	}
	if c, ok := wm.clients[dead]; ok {
		wm.Unmanage(c, true)
	}
}

func (wm *WM) handleUnmapNotify(ev xproto.Event) {
	// A client-initiated unmap means "withdraw" under ICCCM. Our own
	// Iconify only unmaps the frame, never the client window, so any
	// UnmapNotify for a managed client window is client-initiated.
	win := ev.Subwindow
	c, ok := wm.clients[win]
	if !ok {
		return
	}
	if ev.Window != win {
		// SubstructureNotify duplicate for the slot parent; the
		// StructureNotify event on the window itself also arrives.
		return
	}
	if c.ignoreUnmaps > 0 {
		c.ignoreUnmaps--
		return
	}
	if !wm.check(c, "withdraw WM_STATE", icccm.SetState(wm.conn, win, icccm.State{State: xproto.WithdrawnState})) {
		return // check already unmanaged the dead client
	}
	wm.Unmanage(c, false)
}

func (wm *WM) handlePropertyNotify(ev xproto.Event) {
	atomName := wm.conn.AtomName(ev.Atom)
	// Root-window properties: the swmcmd protocol (§5).
	for _, scr := range wm.screens {
		if ev.Window == scr.Root {
			switch atomName {
			case swmproto.CommandProperty:
				// The legacy one-way protocol: execute, no reply.
				if ev.PropertyState == xproto.PropertyNewValue {
					wm.handleSwmCommand(scr)
				}
			case "SWM_HINTS":
				// swmhints appended while running: refresh the table.
				if ev.PropertyState == xproto.PropertyNewValue {
					wm.loadHintTable()
				}
			case swmproto.QueryProperty:
				// The request/response protocol (internal/swmproto).
				if ev.PropertyState == xproto.PropertyNewValue {
					wm.handleSwmQuery(scr)
				}
			}
			return
		}
	}
	c, ok := wm.clients[ev.Window]
	if !ok {
		return
	}
	switch atomName {
	case "WM_NAME":
		name, ok, err := icccm.GetName(wm.conn, c.Win)
		wm.check(c, "read WM_NAME", err)
		if ok {
			c.Name = name
			wm.applyNameLabels(c)
		}
	case "WM_ICON_NAME":
		name, ok, err := icccm.GetIconName(wm.conn, c.Win)
		wm.check(c, "read WM_ICON_NAME", err)
		if ok {
			c.IconName = name
			wm.applyNameLabels(c)
		}
	case "WM_COMMAND":
		cmd, ok, err := icccm.GetCommand(wm.conn, c.Win)
		wm.check(c, "read WM_COMMAND", err)
		if ok {
			c.Command = cmd
		}
	}
}

// handleSwmCommand reads, executes and deletes the SWM_COMMAND property:
// "By writing a special property on the root window, swm interprets its
// contents and executes commands" (§5).
func (wm *WM) handleSwmCommand(scr *Screen) {
	atom := wm.conn.InternAtom(swmproto.CommandProperty)
	prop, ok, err := wm.conn.GetProperty(scr.Root, atom)
	if err != nil || !ok {
		return
	}
	wm.check(nil, "consume SWM_COMMAND", wm.conn.DeleteProperty(scr.Root, atom))
	cmd := string(prop.Data)
	if err := wm.execCommand(scr, cmd); err != nil {
		wm.logf("swmcmd %q: %v", cmd, err)
	}
}

func (wm *WM) handleButtonPress(ev xproto.Event) {
	// Pending f.*(multiple) prompt: apply to the clicked client (§4.2).
	if wm.prompt != nil {
		if c := wm.clientForWindow(ev.Window, ev.Subwindow); c != nil {
			inv := wm.prompt.inv
			if wm.prompt.oneShot {
				wm.prompt = nil
			}
			if err := wm.Execute(&FuncContext{Client: c, Screen: c.scr, Event: ev}, inv); err != nil {
				wm.logf("prompted %s: %v", inv.Name, err)
			}
			return
		}
		// Click on no client cancels the prompt.
		wm.prompt = nil
		return
	}

	// Panner interactions.
	for _, scr := range wm.screens {
		if scr.panner != nil && ev.Window == scr.panner.content {
			scr.panner.handlePress(ev.Button, ev.X, ev.Y)
			return
		}
		if ev.Window == scr.hscroll || ev.Window == scr.vscroll {
			wm.handleScrollbarPress(scr, ev.Window, ev.X, ev.Y)
			return
		}
	}

	// Object bindings (and resize handles, and holder scrolling).
	if ref, ok := wm.byObjWin[ev.Window]; ok {
		if ref.corner > 0 && ev.Button == xproto.Button1 {
			wm.startCornerResize(ref.client, ref.corner-1)
			return
		}
		holder := ref.holder
		if holder == nil && ref.client != nil && ref.client.holder != nil {
			// Wheel events over a held icon scroll its holder.
			holder = ref.client.holder
		}
		if holder != nil && (ev.Button == xproto.Button4 || ev.Button == xproto.Button5) {
			if ev.Button == xproto.Button4 {
				holder.Scroll(-IconScrollStep)
			} else {
				holder.Scroll(IconScrollStep)
			}
			return
		}
		if ref.holder != nil {
			return
		}
		wm.dispatchObjectEvent(ref, ev)
		return
	}

	// Root bindings (passive grabs deliver with the root as event
	// window).
	for _, scr := range wm.screens {
		if ev.Window == scr.Root && scr.rootBindings != nil {
			invs := scr.rootBindings.Lookup(ev.Type, ev.Button, "", ev.State)
			wm.runInvocations(invs, &FuncContext{
				Screen: scr, Client: wm.clientForWindow(ev.Subwindow, xproto.None), Event: ev,
			})
			return
		}
	}
}

func (wm *WM) handleButtonRelease(ev xproto.Event) {
	// Finish an interactive corner resize.
	if wm.resizing != nil {
		wm.continueCornerResize(ev.RootX, ev.RootY, true)
		return
	}
	// Finish an interactive move.
	if ms := wm.moveState; ms != nil {
		if ms.viaPanner {
			for _, scr := range wm.screens {
				if scr.panner != nil && ev.Window == scr.panner.content {
					// Only a release INSIDE the panner drops the
					// miniature there; outside, fall through to the
					// full-size outline move at the pointer (§6.1).
					if g, err := wm.conn.GetGeometry(scr.panner.content); err == nil &&
						ev.X >= 0 && ev.Y >= 0 && ev.X < g.Rect.Width && ev.Y < g.Rect.Height {
						scr.panner.handleRelease(ev.Button, ev.X, ev.Y)
						return
					}
				}
			}
			// Release outside the panner: fall through to a root move at
			// the pointer position (full-size outline move).
			c := ms.client
			wm.moveState = nil
			x, y := ev.RootX, ev.RootY
			if !c.Sticky && c.scr.Desktop != xproto.None {
				x += c.scr.PanX
				y += c.scr.PanY
			}
			wm.moveFrame(c, x, y)
			return
		}
		c := ms.client
		wm.moveState = nil
		wm.conn.UngrabPointer()
		x := ev.RootX - ms.offsetX
		y := ev.RootY - ms.offsetY
		if !c.Sticky && c.scr.Desktop != xproto.None {
			x += c.scr.PanX
			y += c.scr.PanY
		}
		wm.moveFrame(c, x, y)
		return
	}
	if ref, ok := wm.byObjWin[ev.Window]; ok {
		wm.dispatchObjectEvent(ref, ev)
	}
}

func (wm *WM) handleMotion(ev xproto.Event) {
	if wm.resizing != nil {
		wm.continueCornerResize(ev.RootX, ev.RootY, false)
		return
	}
	ms := wm.moveState
	if ms == nil || ms.viaPanner {
		return
	}
	c := ms.client
	x := ev.RootX - ms.offsetX
	y := ev.RootY - ms.offsetY
	if !c.Sticky && c.scr.Desktop != xproto.None {
		x += c.scr.PanX
		y += c.scr.PanY
	}
	wm.moveFrame(c, x, y)
}

func (wm *WM) handleKey(ev xproto.Event) {
	if ref, ok := wm.byObjWin[ev.Window]; ok {
		wm.dispatchObjectEvent(ref, ev)
		return
	}
	for _, scr := range wm.screens {
		if ev.Window == scr.Root && scr.rootBindings != nil {
			invs := scr.rootBindings.Lookup(ev.Type, 0, ev.Keysym, ev.State)
			wm.runInvocations(invs, &FuncContext{
				Screen: scr, Client: wm.clientForWindow(ev.Subwindow, xproto.None), Event: ev,
			})
			return
		}
	}
}

func (wm *WM) handleCrossing(ev xproto.Event) {
	// Focus-follows-mouse: entering a managed client focuses it.
	if ev.Type == xproto.EnterNotify {
		if c, ok := wm.clients[ev.Window]; ok {
			wm.focus = c
			wm.check(c, "focus on enter", wm.conn.SetInputFocus(c.Win))
			return
		}
	}
	if ref, ok := wm.byObjWin[ev.Window]; ok {
		wm.dispatchObjectEvent(ref, ev)
	}
}

func (wm *WM) handleShapeNotify(ev xproto.Event) {
	c, ok := wm.clients[ev.Window]
	if !ok {
		return
	}
	if c.Shaped == ev.Shaped {
		return
	}
	c.Shaped = ev.Shaped
	// Shaped-ness selects different decoration resources (§5.1).
	if err := wm.redecorate(c); err != nil {
		wm.logf("redecorate after shape change: %v", err)
	}
}

// dispatchObjectEvent runs the bindings attached to a decoration/icon
// object. Objects without explicit bindings get sensible defaults: a
// plain click on an icon deiconifies.
func (wm *WM) dispatchObjectEvent(ref objRef, ev xproto.Event) {
	ctx := &FuncContext{Client: ref.client, Screen: ref.screen, Event: ev}
	if ctx.Screen == nil && ctx.Client != nil {
		ctx.Screen = ctx.Client.scr
	}
	if ref.menu != nil {
		ref.menu.dispatch(wm, ref.obj, ev)
		return
	}
	var invs []bindings.Invocation
	if ref.obj != nil && ref.obj.Bindings != nil {
		switch ev.Type {
		case xproto.ButtonPress, xproto.ButtonRelease:
			invs = ref.obj.Bindings.Lookup(ev.Type, ev.Button, "", ev.State)
		case xproto.KeyPress, xproto.KeyRelease:
			invs = ref.obj.Bindings.Lookup(ev.Type, 0, ev.Keysym, ev.State)
		case xproto.EnterNotify, xproto.LeaveNotify, xproto.MotionNotify:
			invs = ref.obj.Bindings.Lookup(ev.Type, 0, "", ev.State)
		}
	}
	if invs == nil && ref.client != nil && ref.client.icon != nil &&
		ev.Type == xproto.ButtonPress && ev.Button == xproto.Button1 {
		// Default icon behavior.
		if obj := ref.obj; obj != nil && isIconObject(ref) {
			invs = []bindings.Invocation{{Name: "f.deiconify"}}
		}
	}
	wm.runInvocations(invs, ctx)
}

// isIconObject reports whether the object belongs to the client's icon
// tree rather than its decoration.
func isIconObject(ref objRef) bool {
	if ref.client == nil || ref.client.icon == nil || ref.obj == nil {
		return false
	}
	found := false
	ref.client.icon.tree.Walk(func(o *objects.Object) {
		if o == ref.obj {
			found = true
		}
	})
	return found
}

func (wm *WM) runInvocations(invs []bindings.Invocation, ctx *FuncContext) {
	for _, inv := range invs {
		if err := wm.Execute(ctx, inv); err != nil {
			wm.logf("%s: %v", inv.Name, err)
		}
	}
}

// clientForWindow resolves a managed client from either a client window,
// frame window, or decoration object window.
func (wm *WM) clientForWindow(wins ...xproto.XID) *Client {
	for _, w := range wins {
		if w == xproto.None {
			continue
		}
		if c, ok := wm.clients[w]; ok {
			return c
		}
		if c, ok := wm.byFrame[w]; ok {
			return c
		}
		if ref, ok := wm.byObjWin[w]; ok && ref.client != nil {
			return ref.client
		}
	}
	return nil
}
