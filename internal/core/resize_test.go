package core

import (
	"testing"

	"repro/internal/clients"
	"repro/internal/icccm"
	"repro/internal/xproto"
	"repro/internal/xserver"
)

// The OpenLook template sets Swm*panel.openLook.resizeCorners: True
// (paper Figure 1), so managed clients get four corner handles.
func TestResizeCornersCreated(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	_, c := launch(t, s, wm, clients.Config{Instance: "xterm", Class: "XTerm", Width: 300, Height: 200})
	for i, win := range c.corners {
		if win == xproto.None {
			t.Fatalf("corner %d missing", i)
		}
	}
	// Corner positions hug the frame corners.
	gSE, _ := wm.conn.GetGeometry(c.corners[cornerSE])
	if gSE.Rect.X != c.FrameRect.Width-cornerSize || gSE.Rect.Y != c.FrameRect.Height-cornerSize {
		t.Errorf("SE corner at %v for frame %v", gSE.Rect, c.FrameRect)
	}
	gNW, _ := wm.conn.GetGeometry(c.corners[cornerNW])
	if gNW.Rect.X != 0 || gNW.Rect.Y != 0 {
		t.Errorf("NW corner at %v", gNW.Rect)
	}
}

func TestNoResizeCornersWithoutResource(t *testing.T) {
	s, wm := newWM(t, Options{}) // Motif template lacks resizeCorners
	db := wm.db
	db.MustPut("swm*decoration", "plain")
	db.MustPut("Swm*panel.plain", "panel client +0+0")
	_, c := launch(t, s, wm, clients.Config{Instance: "x", Class: "X", Width: 100, Height: 100})
	for _, win := range c.corners {
		if win != xproto.None {
			t.Fatal("corner created without the resizeCorners resource")
		}
	}
}

func TestCornerDragResizes(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	app, c := launch(t, s, wm, clients.Config{Instance: "xterm", Class: "XTerm", Width: 300, Height: 200,
		NormalHints: &icccm.NormalHints{Flags: icccm.PPosition, X: 100, Y: 100}})
	// Press Button1 on the SE handle.
	rx, ry, _, _ := wm.conn.TranslateCoordinates(c.corners[cornerSE], wm.screens[0].Root, 2, 2)
	s.FakeMotion(rx, ry)
	s.FakeButtonPress(xproto.Button1, 0)
	wm.Pump()
	if wm.resizing == nil {
		t.Fatal("corner press did not start a resize")
	}
	// Drag 100 px right, 50 px down and release.
	s.FakeMotion(rx+100, ry+50)
	wm.Pump()
	s.FakeButtonRelease(xproto.Button1, 0)
	wm.Pump()
	if wm.resizing != nil {
		t.Fatal("resize not finished on release")
	}
	g, _ := app.Conn.GetGeometry(app.Win)
	if g.Rect.Width <= 300 || g.Rect.Height <= 200 {
		t.Errorf("client did not grow: %dx%d", g.Rect.Width, g.Rect.Height)
	}
	// The NW (anchor) corner stays put.
	if c.FrameRect.X != 100-c.clientSlot.Rect.X || c.FrameRect.Y != 100-c.clientSlot.Rect.Y {
		t.Errorf("anchored corner moved: frame at (%d,%d)", c.FrameRect.X, c.FrameRect.Y)
	}
}

func TestCornerDragNWAnchorsSE(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	_, c := launch(t, s, wm, clients.Config{Instance: "xterm", Class: "XTerm", Width: 300, Height: 200,
		NormalHints: &icccm.NormalHints{Flags: icccm.PPosition, X: 400, Y: 400}})
	seX := c.FrameRect.X + c.FrameRect.Width
	seY := c.FrameRect.Y + c.FrameRect.Height
	rx, ry, _, _ := wm.conn.TranslateCoordinates(c.corners[cornerNW], wm.screens[0].Root, 2, 2)
	s.FakeMotion(rx, ry)
	s.FakeButtonPress(xproto.Button1, 0)
	wm.Pump()
	// Drag the NW handle inward (shrinking) and release.
	s.FakeMotion(rx+80, ry+60)
	s.FakeButtonRelease(xproto.Button1, 0)
	wm.Pump()
	// The SE corner must not have moved.
	if got := c.FrameRect.X + c.FrameRect.Width; got != seX {
		t.Errorf("SE x = %d, want %d", got, seX)
	}
	if got := c.FrameRect.Y + c.FrameRect.Height; got != seY {
		t.Errorf("SE y = %d, want %d", got, seY)
	}
	if c.FrameRect.Width >= 300 {
		t.Errorf("frame did not shrink: %v", c.FrameRect)
	}
}

func TestCornersFollowClientResize(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	app, c := launch(t, s, wm, clients.Config{Instance: "xterm", Class: "XTerm", Width: 300, Height: 200})
	if err := app.Resize(500, 400); err != nil {
		t.Fatal(err)
	}
	wm.Pump()
	g, _ := wm.conn.GetGeometry(c.corners[cornerSE])
	if g.Rect.X != c.FrameRect.Width-cornerSize || g.Rect.Y != c.FrameRect.Height-cornerSize {
		t.Errorf("SE corner at %v after resize to frame %v", g.Rect, c.FrameRect)
	}
	_ = s
}

// TestCornerSetupFailureLeaksNothing fails every corner handle's
// SelectInput, and in a second case every handle's MapWindow. Each
// half-built handle must be destroyed: the server's window count
// returns to where it was before the handles were created, and no
// corner is recorded on the client.
func TestCornerSetupFailureLeaksNothing(t *testing.T) {
	for _, op := range []string{"SelectInput", "MapWindow"} {
		t.Run(op, func(t *testing.T) {
			s, wm := newWM(t, Options{VirtualDesktop: true})
			_, c := launch(t, s, wm, clients.Config{Instance: "xterm", Class: "XTerm", Width: 300, Height: 200})
			// Take the handles Manage built down, so createResizeCorners
			// starts again from none.
			for _, win := range c.corners {
				wm.destroyWindow(win)
			}
			wm.dropResizeCorners(c)
			before := s.NumWindows()

			wm.conn.SetFaultPolicy(&xserver.FaultPolicy{Seed: 23, Rate: 1, Ops: []string{op}})
			wm.createResizeCorners(c)
			fired := wm.conn.FaultCount()
			wm.conn.SetFaultPolicy(nil)

			if fired != 4 {
				t.Fatalf("%d %s faults fired, want one per corner (4)", fired, op)
			}
			if n := s.NumWindows(); n != before {
				t.Errorf("server window count %d -> %d: failed corner handles leaked", before, n)
			}
			for i, win := range c.corners {
				if win != xproto.None {
					t.Errorf("corner %d recorded as 0x%x after its %s failed", i, uint32(win), op)
				}
			}
		})
	}
}
