package core

import (
	"fmt"

	"repro/internal/bindings"
	"repro/internal/objects"
	"repro/internal/xproto"
)

// Menu is a popped-up panel of buttons (the fourth basic object). Menus
// are defined exactly like any other panel; items carry their actions
// in ordinary bindings, so "an infinite number of window management
// policies" extends to menu-driven ones.
type Menu struct {
	name string
	tree *objects.Object
	scr  *Screen
	// ctxClient is the client the menu was invoked on; item functions
	// run against it.
	ctxClient *Client
}

// fMenu pops up the named menu panel at the pointer position.
func fMenu(wm *WM, ctx *FuncContext, inv bindings.Invocation) error {
	if !inv.HasArg {
		return fmt.Errorf("core: f.menu requires a panel name")
	}
	scr := ctx.Screen
	if scr == nil {
		scr = wm.screens[0]
	}
	return wm.PopupMenu(scr, inv.Arg, ctx.Client)
}

// PopupMenu realizes the named panel as an override-redirect popup at
// the current pointer position.
func (wm *WM) PopupMenu(scr *Screen, name string, ctxClient *Client) error {
	// Only one menu at a time; popping a new one dismisses the old.
	wm.dismissMenus(scr)
	octx := wm.ctx(scr)
	tree, err := objects.Build(octx, name)
	if err != nil {
		return err
	}
	objects.Layout(tree, 0, 0)
	info := wm.conn.QueryPointer()
	x, y := info.RootX, info.RootY
	// Keep the menu on screen.
	if x+tree.Rect.Width > scr.Width {
		x = scr.Width - tree.Rect.Width
	}
	if y+tree.Rect.Height > scr.Height {
		y = scr.Height - tree.Rect.Height
	}
	if err := objects.Realize(wm.conn, tree, scr.Root, x, y); err != nil {
		return err
	}
	if err := wm.conn.MapWindow(tree.Window); err != nil {
		return err
	}
	if err := wm.conn.RaiseWindow(tree.Window); err != nil {
		return err
	}
	m := &Menu{name: name, tree: tree, scr: scr, ctxClient: ctxClient}
	tree.Walk(func(o *objects.Object) {
		if o.Window != xproto.None {
			wm.byObjWin[o.Window] = objRef{screen: scr, obj: o, menu: m, client: ctxClient}
		}
	})
	scr.menus = append(scr.menus, m)
	return nil
}

// dispatch handles an event on a menu item: the item's bindings run
// with the menu's context client, then the menu closes on a button
// release.
func (m *Menu) dispatch(wm *WM, obj *objects.Object, ev xproto.Event) {
	var invs []bindings.Invocation
	if obj != nil && obj.Bindings != nil {
		switch ev.Type {
		case xproto.ButtonPress, xproto.ButtonRelease:
			invs = obj.Bindings.Lookup(ev.Type, ev.Button, xproto.NoSymbol, ev.State)
		case xproto.KeyPress:
			invs = obj.Bindings.Lookup(ev.Type, 0, ev.Keysym, ev.State)
		}
	}
	ctx := &FuncContext{Client: m.ctxClient, Screen: m.scr, Event: ev}
	wm.runInvocations(invs, ctx)
	if ev.Type == xproto.ButtonRelease {
		wm.closeMenu(m)
	}
}

// closeMenu unrealizes one menu.
func (wm *WM) closeMenu(m *Menu) {
	m.tree.Walk(func(o *objects.Object) {
		if o.Window != xproto.None {
			delete(wm.byObjWin, o.Window)
		}
	})
	wm.destroyTree(m.tree)
	menus := m.scr.menus[:0]
	for _, other := range m.scr.menus {
		if other != m {
			menus = append(menus, other)
		}
	}
	m.scr.menus = menus
}

// dismissMenus closes every open menu on the screen.
func (wm *WM) dismissMenus(scr *Screen) {
	for len(scr.menus) > 0 {
		wm.closeMenu(scr.menus[0])
	}
}

// OpenMenus reports the currently-open menus on a screen.
func (scr *Screen) OpenMenus() []*Menu { return append([]*Menu(nil), scr.menus...) }

// Tree exposes the menu's object tree (tests drive item clicks through
// it).
func (m *Menu) Tree() *objects.Object { return m.tree }
