package core

import (
	"testing"

	"repro/internal/clients"
	"repro/internal/xproto"
	"repro/internal/xrdb"
	"repro/internal/xserver"
)

// TestResourceKeysPerScreen pins the resource names the WM builds for
// icon holders, root icons, resize corners and root bindings:
// swm.<color>.<screenN>.... Each resource is set by a fully tight
// specifier for one screen of a two-screen server whose screen 1 is
// monochrome, so a lookup that builds a wrong color or screen
// component misses it, and the other screen must see its defaults.
// Root bindings are read from swm.<c>.<s>.panel.root.bindings and, when
// that is absent, from swm.<c>.<s>.root.bindings; the two cases swap
// which screen carries which name.
func TestResourceKeysPerScreen(t *testing.T) {
	for _, tc := range []struct {
		name           string
		rootBindings   [2]string // the specifier setting each screen's root bindings
		rootKey, other string    // the keysym bound on screen 0 and screen 1
	}{
		{"panel name on screen 1", [2]string{
			"swm.color.screen0.root.bindings",
			"swm.monochrome.screen1.panel.root.bindings",
		}, "F1", "F2"},
		{"fallback name on screen 1", [2]string{
			"swm.color.screen0.panel.root.bindings",
			"swm.monochrome.screen1.root.bindings",
		}, "F1", "F2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := xserver.NewServer(
				xserver.ScreenSpec{Width: 1152, Height: 900},
				xserver.ScreenSpec{Width: 1024, Height: 768, Monochrome: true},
			)
			db := xrdb.New()
			db.MustPut("Swm*panel.default", "panel client +0+0")
			db.MustPut("Swm*panel.trash", "button trashcan +0+0")
			db.MustPut("swm*iconHolders", "box")
			db.MustPut("swm*rootIcons", "trash")
			db.MustPut("swm.monochrome.screen1.iconHolder.box.class", "XTerm")
			db.MustPut("swm.monochrome.screen1.iconHolder.box.hideWhenEmpty", "True")
			db.MustPut("swm.monochrome.screen1.iconHolder.box.sizeToFit", "True")
			db.MustPut("swm.monochrome.screen1.iconHolder.box.geometry", "300x120+40+50")
			db.MustPut("swm.monochrome.screen1.rootIcon.trash.geometry", "+500+600")
			db.MustPut("swm.monochrome.screen1.panel.default.resizeCorners", "True")
			db.MustPut(tc.rootBindings[0], "Meta <Key>"+tc.rootKey+" : f.nop")
			db.MustPut(tc.rootBindings[1], "Meta <Key>"+tc.other+" : f.nop")
			wm, err := New(s, Options{DB: db})
			if err != nil {
				t.Fatal(err)
			}
			defer wm.Close()
			scr0, scr1 := wm.screens[0], wm.screens[1]

			h0, h1 := scr0.holders[0], scr1.holders[0]
			if h1.classFilter != "XTerm" || !h1.hideWhenEmpty || !h1.sizeToFit ||
				h1.rect != (xproto.Rect{X: 40, Y: 50, Width: 300, Height: 120}) {
				t.Errorf("screen 1 holder: class %q hideWhenEmpty %v sizeToFit %v rect %v",
					h1.classFilter, h1.hideWhenEmpty, h1.sizeToFit, h1.rect)
			}
			if h0.classFilter != "" || h0.hideWhenEmpty || h0.sizeToFit ||
				h0.rect != (xproto.Rect{Width: 200, Height: 150}) {
				t.Errorf("screen 0 holder took screen 1's resources: class %q hideWhenEmpty %v sizeToFit %v rect %v",
					h0.classFilter, h0.hideWhenEmpty, h0.sizeToFit, h0.rect)
			}

			for i, want := range []xproto.Rect{{X: 8, Y: 8}, {X: 500, Y: 600}} {
				g, err := wm.conn.GetGeometry(wm.screens[i].RootIconWindows()[0])
				if err != nil {
					t.Fatal(err)
				}
				if g.Rect.X != want.X || g.Rect.Y != want.Y {
					t.Errorf("screen %d root icon at (%d,%d), want (%d,%d)", i, g.Rect.X, g.Rect.Y, want.X, want.Y)
				}
			}

			for i, want := range []bool{false, true} {
				_, c := launch(t, s, wm, clients.Config{Instance: "xterm", Class: "XTerm", Width: 100, Height: 100, Screen: i})
				if got := c.corners[cornerNW] != xproto.None; got != want {
					t.Errorf("screen %d client has resize corners = %v, want %v", i, got, want)
				}
			}

			for i, want := range []string{tc.rootKey, tc.other} {
				rb := wm.screens[i].rootBindings
				if rb == nil || len(rb.Bindings) != 1 || rb.Bindings[0].Keysym != want {
					t.Errorf("screen %d root bindings = %+v, want one binding of %s", i, rb, want)
				}
			}
		})
	}
}
