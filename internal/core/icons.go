package core

import (
	"fmt"
	"strings"

	"repro/internal/geom"
	"repro/internal/icccm"
	"repro/internal/objects"
	"repro/internal/xproto"
)

// Iconify puts a client into the iconic state: the frame is unmapped,
// an icon appearance panel is realized (or a holder adopts the icon),
// and WM_STATE becomes IconicState. (Paper §4.1.2: "swm has no concept
// of what an icon should look like; it is up to the user to describe
// how icons should be represented".)
func (wm *WM) Iconify(c *Client) error {
	if c.State == xproto.IconicState {
		return nil
	}
	if err := wm.conn.UnmapWindow(c.frame.Window); err != nil {
		return err
	}
	// State flips before the icon is built so holder layout (which only
	// places iconic entries) sees a consistent picture.
	c.State = xproto.IconicState
	if c.icon == nil {
		if err := wm.buildIcon(c); err != nil {
			c.State = xproto.NormalState
			return err
		}
	} else if c.holder != nil {
		c.holder.layoutIcons()
	}
	if err := wm.conn.MapWindow(c.icon.Window()); err != nil {
		return err
	}
	wm.check(c, "set WM_STATE iconic", icccm.SetState(wm.conn, c.Win, icccm.State{
		State: xproto.IconicState, IconWindow: c.icon.Window(),
	}))
	wm.markPannerDirty(c.scr)
	return nil
}

// Deiconify restores a client to the normal state.
func (wm *WM) Deiconify(c *Client) error {
	if c.State == xproto.NormalState {
		return nil
	}
	if c.icon != nil {
		if err := wm.conn.UnmapWindow(c.icon.Window()); err != nil {
			return err
		}
		if c.holder != nil {
			c.holder.layoutIcons()
		}
	}
	if err := wm.conn.MapWindow(c.frame.Window); err != nil {
		return err
	}
	c.State = xproto.NormalState
	wm.check(c, "set WM_STATE normal", icccm.SetState(wm.conn, c.Win, icccm.State{State: xproto.NormalState}))
	wm.markPannerRestack(c.scr)
	return nil
}

// buildIcon constructs the icon appearance panel for a client. The
// panel name comes from the client-specific iconPanel resource; special
// objects "iconimage" and "iconname" display the icon pixmap / icon
// window and WM_ICON_NAME (paper §4.1.2).
func (wm *WM) buildIcon(c *Client) error {
	ctx := wm.clientCtx(c.scr, c.Shaped, c.Sticky)
	panelName, ok := ctx.LookupClient(c.Class.Class, c.Class.Instance, "iconPanel")
	if !ok {
		panelName = "Xicon"
	}
	tree, err := objects.Build(ctx, panelName)
	if err != nil {
		// Minimal fallback: a single name button.
		tree = &objects.Object{Kind: objects.KindPanel, Name: "swmIconFallback"}
		b := &objects.Object{Kind: objects.KindButton, Name: "iconname", Parent: tree}
		tree.Children = []*objects.Object{b}
	}
	// Fill in the special objects before layout so sizes are right.
	// Absent hints (and failed reads, routed through check) fall back to
	// the default icon image.
	hints, hasHints, err := icccm.GetHints(wm.conn, c.Win)
	wm.check(c, "read WM_HINTS", err)
	if img := tree.Find("iconimage"); img != nil {
		label := img.Attrs.Image
		if label == "" {
			label = "xlogo32"
		}
		if hasHints && hints.Flags&icccm.IconPixmapHint != 0 && hints.IconPixmap != "" {
			// "If the client has specified a pixmap to display as the
			// icon ... that image is displayed in the iconimage button."
			label = hints.IconPixmap
		}
		if hasHints && hints.Flags&icccm.IconWindowHint != 0 && hints.IconWindow != xproto.None {
			label = fmt.Sprintf("[win 0x%x]", uint32(hints.IconWindow))
		}
		img.SetLabel(label)
	}
	if nameObj := tree.Find("iconname"); nameObj != nil && c.IconName != "" {
		nameObj.SetLabel(c.IconName)
	}
	objects.Layout(tree, 0, 0)

	// A holder whose class filter matches adopts the icon (§4.1.5);
	// otherwise the icon sits on the desktop/root.
	var parent xproto.XID
	var holder *IconHolder
	for _, h := range c.scr.holders {
		if h.accepts(c) {
			holder = h
			break
		}
	}
	if holder != nil {
		parent = holder.iconArea()
	} else {
		parent = wm.frameParent(c)
	}

	ix, iy := c.iconX, c.iconY
	if !c.hasIconPos && holder == nil {
		// Default icon placement: march across the bottom of the
		// viewport.
		ix = 8 + (len(wm.clients)%12)*(tree.Rect.Width+12)
		iy = c.scr.Height - tree.Rect.Height - 8
		if !c.Sticky && c.scr.Desktop != xproto.None {
			ix += c.scr.PanX
			iy += c.scr.PanY
		}
	}
	if err := objects.Realize(wm.conn, tree, parent, ix, iy); err != nil {
		// A partially realized icon tree still owns server windows.
		wm.destroyTree(tree)
		return err
	}
	c.icon = &Icon{tree: tree, parent: parent}
	c.iconX, c.iconY = ix, iy
	c.hasIconPos = true
	c.holder = holder
	tree.Walk(func(o *objects.Object) {
		if o.Window != xproto.None {
			wm.byObjWin[o.Window] = objRef{client: c, screen: c.scr, obj: o}
		}
	})
	// Icons respond to clicks even without explicit bindings: a plain
	// Btn1 deiconifies unless the user bound something else.
	wm.check(c, "icon input", wm.conn.SelectInput(tree.Window, xproto.ButtonPressMask|xproto.ButtonReleaseMask))
	wm.byObjWin[tree.Window] = objRef{client: c, screen: c.scr, obj: tree}
	if holder != nil {
		holder.addIcon(c)
	}
	return nil
}

// removeIcon destroys a client's icon (on unmanage).
func (wm *WM) removeIcon(c *Client) {
	if c.icon == nil {
		return
	}
	if c.holder != nil {
		c.holder.removeIcon(c)
		c.holder = nil
	}
	c.icon.tree.Walk(func(o *objects.Object) {
		if o.Window != xproto.None {
			delete(wm.byObjWin, o.Window)
		}
	})
	wm.destroyTree(c.icon.tree)
	c.icon = nil
}

// MoveIcon repositions a client's icon (f.move on an icon, panner
// drags, session restore).
func (wm *WM) MoveIcon(c *Client, x, y int) {
	if c.icon == nil {
		return
	}
	c.iconX, c.iconY = x, y
	c.hasIconPos = true
	wm.check(c, "move icon", wm.conn.MoveWindow(c.icon.Window(), x, y))
}

// IconScrollStep is the holder scroll increment per wheel click.
const IconScrollStep = 24

// --- Icon holders (paper §4.1.5) -------------------------------------------

// IconHolder is a special root panel that contains icons: "they provide
// an optional scrolling window in which icons can be deposited and
// managed". Holders can filter by client class, hide when empty, and
// size to fit.
type IconHolder struct {
	wm   *WM
	scr  *Screen
	name string
	// classFilter restricts which clients' icons are accepted ("" means
	// all).
	classFilter string
	// hideWhenEmpty unmaps the holder when it holds no icons.
	hideWhenEmpty bool
	// sizeToFit grows the holder to fit all icons instead of scrolling.
	sizeToFit bool

	window xproto.XID // container window (child of root)
	rect   xproto.Rect
	icons  []*Client
	// scrollY offsets the icon flow: the holder is "an optional
	// scrolling window in which icons can be deposited" (§4.1.5).
	scrollY int
}

// createIconHolder builds a holder from its resources:
// swm*iconHolder.<name>.class / .hideWhenEmpty / .sizeToFit / .geometry.
func (wm *WM) createIconHolder(scr *Screen, name string) error {
	ctx := wm.ctx(scr)
	h := &IconHolder{wm: wm, scr: scr, name: name}
	lookup := func(attr string) (string, bool) { return ctx.LookupObject("iconHolder", name, attr) }
	if v, ok := lookup("class"); ok {
		h.classFilter = v
	}
	if v, ok := lookup("hideWhenEmpty"); ok {
		h.hideWhenEmpty = strings.EqualFold(v, "true")
	}
	if v, ok := lookup("sizeToFit"); ok {
		h.sizeToFit = strings.EqualFold(v, "true")
	}
	h.rect = xproto.Rect{X: 0, Y: 0, Width: 200, Height: 150}
	if v, ok := lookup("geometry"); ok {
		if g, err := geom.Parse(v); err == nil {
			x, y, w, hh := g.Apply(scr.Width, scr.Height, h.rect.Width, h.rect.Height)
			h.rect = xproto.Rect{X: x, Y: y, Width: w, Height: hh}
		}
	}
	win, err := wm.conn.CreateWindow(scr.Root, h.rect, 1, xserverAttrs("holder:"+name))
	if err != nil {
		return err
	}
	h.window = win
	if err := wm.conn.SelectInput(win, xproto.ButtonPressMask|xproto.ButtonReleaseMask); err != nil {
		return err
	}
	if !h.hideWhenEmpty {
		if err := wm.conn.MapWindow(win); err != nil {
			return err
		}
	}
	wm.byObjWin[win] = objRef{screen: scr, holder: h}
	scr.holders = append(scr.holders, h)
	return nil
}

// accepts reports whether this holder takes the client's icon.
func (h *IconHolder) accepts(c *Client) bool {
	if h.classFilter == "" {
		return true
	}
	return h.classFilter == c.Class.Class || h.classFilter == c.Class.Instance
}

// iconArea is the window icons are reparented into.
func (h *IconHolder) iconArea() xproto.XID { return h.window }

// Window returns the holder's container window.
func (h *IconHolder) Window() xproto.XID { return h.window }

// Icons returns the clients whose icons the holder currently contains.
func (h *IconHolder) Icons() []*Client { return append([]*Client(nil), h.icons...) }

func (h *IconHolder) addIcon(c *Client) {
	h.icons = append(h.icons, c)
	h.layoutIcons()
	if h.hideWhenEmpty {
		h.wm.check(nil, "map holder", h.wm.conn.MapWindow(h.window))
	}
}

func (h *IconHolder) removeIcon(c *Client) {
	for i, ic := range h.icons {
		if ic == c {
			h.icons = append(h.icons[:i], h.icons[i+1:]...)
			break
		}
	}
	h.layoutIcons()
	if h.hideWhenEmpty && len(h.icons) == 0 {
		h.wm.check(nil, "hide holder", h.wm.conn.UnmapWindow(h.window))
	}
}

// Scroll moves the held icons vertically by dy pixels (positive scrolls
// the content up), clamped so the first row can always be reached.
func (h *IconHolder) Scroll(dy int) {
	h.scrollY += dy
	if h.scrollY < 0 {
		h.scrollY = 0
	}
	h.layoutIcons()
}

// ScrollOffset reports the current scroll position.
func (h *IconHolder) ScrollOffset() int { return h.scrollY }

// layoutIcons flows the held icons left-to-right, top-to-bottom; with
// sizeToFit the holder grows to the content.
func (h *IconHolder) layoutIcons() {
	const pad = 4
	x, y := pad, pad-h.scrollY
	rowH := 0
	maxX := 0
	for _, c := range h.icons {
		if c.icon == nil || c.State != xproto.IconicState {
			continue
		}
		iw := c.icon.tree.Rect.Width
		ih := c.icon.tree.Rect.Height
		if !h.sizeToFit && x+iw > h.rect.Width && x > pad {
			x = pad
			y += rowH + pad
			rowH = 0
		}
		h.wm.check(c, "layout icon", h.wm.conn.MoveWindow(c.icon.Window(), x, y))
		c.iconX, c.iconY = x, y
		x += iw + pad
		if ih > rowH {
			rowH = ih
		}
		if x > maxX {
			maxX = x
		}
	}
	if h.sizeToFit && len(h.icons) > 0 {
		w := maxX
		hh := y + rowH + pad
		if w < 2*pad {
			w = 2 * pad
		}
		h.wm.check(nil, "size holder to fit", h.wm.conn.ResizeWindow(h.window, w, hh))
		h.rect.Width, h.rect.Height = w, hh
	}
}

// --- Root icons (paper §4.1.3) ------------------------------------------------

// rootIcon is an icon appearance panel with no client behind it: it
// cannot be deiconified but can be moved and carries bindings (e.g. as a
// drag-and-drop target).
type rootIcon struct {
	name string
	tree *objects.Object
	scr  *Screen
}

// createRootIcon realizes a root icon from its panel definition, placed
// by the swm*rootIcon.<name>.geometry resource.
func (wm *WM) createRootIcon(scr *Screen, name string) error {
	ctx := wm.ctx(scr)
	tree, err := objects.Build(ctx, name)
	if err != nil {
		return err
	}
	objects.Layout(tree, 0, 0)
	x, y := 8, 8
	if v, ok := ctx.LookupObject("rootIcon", name, "geometry"); ok {
		if g, err := geom.Parse(v); err == nil {
			x, y, _, _ = g.Apply(scr.Width, scr.Height, tree.Rect.Width, tree.Rect.Height)
		}
	}
	parent := scr.Root
	if scr.Desktop != xproto.None {
		parent = scr.Desktop
	}
	if err := objects.Realize(wm.conn, tree, parent, x, y); err != nil {
		return err
	}
	if err := wm.conn.MapWindow(tree.Window); err != nil {
		return err
	}
	ri := &rootIcon{name: name, tree: tree, scr: scr}
	tree.Walk(func(o *objects.Object) {
		if o.Window != xproto.None {
			wm.byObjWin[o.Window] = objRef{screen: scr, obj: o, rootIcon: ri}
		}
	})
	scr.rootIcons = append(scr.rootIcons, ri)
	return nil
}

// RootIconWindows lists the realized root icon windows on a screen
// (test/diagnostic helper).
func (scr *Screen) RootIconWindows() []xproto.XID {
	var out []xproto.XID
	for _, ri := range scr.rootIcons {
		out = append(out, ri.tree.Window)
	}
	return out
}

// IconHolders lists the screen's icon holders.
func (scr *Screen) IconHolders() []*IconHolder { return scr.holders }

// --- Root panels (paper §4.1.4) ---------------------------------------------

// createRootPanel realizes a root panel and manages it through the
// normal client path: "Root panels ... are treated like other client
// windows, i.e., they get reparented, can be iconified, etc."
func (wm *WM) createRootPanel(scr *Screen, name string) error {
	ctx := wm.ctx(scr)
	tree, err := objects.Build(ctx, name)
	if err != nil {
		return err
	}
	objects.Layout(tree, 0, 0)
	// The panel content becomes a "client" window owned by the WM's own
	// connection, then managed like any other client.
	if err := objects.Realize(wm.conn, tree, scr.Root, 16, 16); err != nil {
		return err
	}
	win := tree.Window
	wm.check(nil, "panel class", icccm.SetClass(wm.conn, win, icccm.Class{Instance: name, Class: "SwmRootPanel"}))
	wm.check(nil, "panel name", icccm.SetName(wm.conn, win, name))
	if err := wm.conn.MapWindow(win); err != nil {
		return err
	}
	c, err := wm.Manage(win)
	if err != nil {
		return err
	}
	c.isRootPanel = true
	// The panel's buttons keep their own object registrations, but the
	// binding context should resolve to the root panel client.
	tree.Walk(func(o *objects.Object) {
		if o.Window != xproto.None {
			wm.byObjWin[o.Window] = objRef{client: c, screen: scr, obj: o}
		}
	})
	scr.rootPanels = append(scr.rootPanels, c)
	return nil
}

// RootPanels lists the screen's managed root panels.
func (scr *Screen) RootPanels() []*Client { return append([]*Client(nil), scr.rootPanels...) }
