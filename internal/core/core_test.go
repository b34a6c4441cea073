package core

import (
	"strings"
	"testing"

	"repro/internal/clients"
	"repro/internal/geom"
	"repro/internal/icccm"
	"repro/internal/templates"
	"repro/internal/xproto"
	"repro/internal/xserver"
)

// newWM spins up a server + swm with the OpenLook template and the
// Virtual Desktop enabled.
func newWM(t testing.TB, opts Options) (*xserver.Server, *WM) {
	t.Helper()
	s := xserver.NewServer()
	if opts.DB == nil {
		db, err := templates.Load(templates.OpenLook)
		if err != nil {
			t.Fatal(err)
		}
		opts.DB = db
	}
	wm, err := New(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	wm.Pump()
	return s, wm
}

// launch starts a client and pumps the WM so it gets managed.
func launch(t testing.TB, s *xserver.Server, wm *WM, cfg clients.Config) (*clients.App, *Client) {
	t.Helper()
	app, err := clients.Launch(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wm.Pump()
	c, ok := wm.ClientOf(app.Win)
	if !ok {
		t.Fatalf("client %s not managed", cfg.Instance)
	}
	app.Pump()
	return app, c
}

func TestNewRejectsSecondWM(t *testing.T) {
	s, _ := newWM(t, Options{})
	if _, err := New(s, Options{}); err == nil {
		t.Fatal("second WM attached to the same display")
	}
}

func TestManageBasics(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	app, c := launch(t, s, wm, clients.Config{
		Instance: "xterm", Class: "XTerm", Name: "shell",
		Width: 300, Height: 200, Command: []string{"xterm"},
	})
	// Client reparented into the decoration.
	_, parent, _, err := app.Conn.QueryTree(app.Win)
	if err != nil {
		t.Fatal(err)
	}
	if parent == wm.screens[0].Root || parent == wm.screens[0].Desktop {
		t.Error("client not reparented into a frame")
	}
	// Decoration is the template's openLook panel.
	if c.decoration != "openLook" {
		t.Errorf("decoration = %q, want openLook", c.decoration)
	}
	// Frame lives on the Virtual Desktop.
	_, fparent, _, _ := app.Conn.QueryTree(c.frame.Window)
	if fparent != wm.screens[0].Desktop {
		t.Errorf("frame parent = %v, want desktop %v", fparent, wm.screens[0].Desktop)
	}
	// WM_STATE is NormalState.
	st, ok, _ := icccm.GetState(wm.conn, app.Win)
	if !ok || st.State != xproto.NormalState {
		t.Errorf("WM_STATE = %+v ok=%v", st, ok)
	}
	// The name button shows WM_NAME.
	nameObj := c.frame.Find("name")
	if nameObj == nil || nameObj.Label() != "shell" {
		t.Errorf("name label = %q", nameObj.Label())
	}
	// Client viewable.
	attrs, _ := app.Conn.GetWindowAttributes(app.Win)
	if attrs.MapState != xproto.IsViewable {
		t.Error("client not viewable after manage")
	}
}

func TestManageSetsSwmRoot(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	app, _ := launch(t, s, wm, clients.Config{Instance: "xterm", Class: "XTerm", Width: 100, Height: 100})
	got, ok := SwmRoot(app.Conn, app.Win)
	if !ok {
		t.Fatal("SWM_ROOT not set")
	}
	if got != wm.screens[0].Desktop {
		t.Errorf("SWM_ROOT = %v, want desktop %v", got, wm.screens[0].Desktop)
	}
}

func TestManageWithoutVirtualDesktop(t *testing.T) {
	s, wm := newWM(t, Options{})
	app, c := launch(t, s, wm, clients.Config{Instance: "xterm", Class: "XTerm", Width: 100, Height: 100})
	_, fparent, _, _ := app.Conn.QueryTree(c.frame.Window)
	if fparent != wm.screens[0].Root {
		t.Error("frame should live on the root without a Virtual Desktop")
	}
	if got, _ := SwmRoot(app.Conn, app.Win); got != wm.screens[0].Root {
		t.Errorf("SWM_ROOT = %v, want real root", got)
	}
}

func TestWMNameUpdateRelabelsTitlebar(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	app, c := launch(t, s, wm, clients.Config{Instance: "xterm", Class: "XTerm", Name: "one", Width: 300, Height: 200})
	if err := app.SetName("two: a longer title"); err != nil {
		t.Fatal(err)
	}
	wm.Pump()
	if got := c.frame.Find("name").Label(); got != "two: a longer title" {
		t.Errorf("titlebar label = %q", got)
	}
}

func TestConfigureRequestResize(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	app, c := launch(t, s, wm, clients.Config{Instance: "xterm", Class: "XTerm", Width: 300, Height: 200})
	oldFrameW := c.FrameRect.Width
	if err := app.Resize(400, 250); err != nil {
		t.Fatal(err)
	}
	wm.Pump()
	g, _ := app.Conn.GetGeometry(app.Win)
	if g.Rect.Width != 400 || g.Rect.Height != 250 {
		t.Errorf("client size = %dx%d, want 400x250", g.Rect.Width, g.Rect.Height)
	}
	if c.FrameRect.Width <= oldFrameW {
		t.Errorf("frame did not grow with client: %d -> %d", oldFrameW, c.FrameRect.Width)
	}
	// Client was informed via synthetic ConfigureNotify.
	app.Pump()
}

func TestClientWithdrawUnmanages(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	app, _ := launch(t, s, wm, clients.Config{Instance: "xterm", Class: "XTerm", Width: 100, Height: 100})
	if err := app.Withdraw(); err != nil {
		t.Fatal(err)
	}
	wm.Pump()
	if _, ok := wm.ClientOf(app.Win); ok {
		t.Error("withdrawn client still managed")
	}
	st, ok, _ := icccm.GetState(app.Conn, app.Win)
	if !ok || st.State != xproto.WithdrawnState {
		t.Errorf("WM_STATE = %+v, want Withdrawn", st)
	}
	// Window is back under the root.
	_, parent, _, _ := app.Conn.QueryTree(app.Win)
	if parent != wm.screens[0].Root {
		t.Error("withdrawn client not reparented to root")
	}
}

func TestClientDestroyUnmanages(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	app, c := launch(t, s, wm, clients.Config{Instance: "xterm", Class: "XTerm", Width: 100, Height: 100})
	frameWin := c.frame.Window
	app.Close() // connection close destroys the window
	wm.Pump()
	if _, ok := wm.ClientOf(app.Win); ok {
		t.Error("destroyed client still managed")
	}
	if _, err := wm.conn.GetGeometry(frameWin); err == nil {
		t.Error("frame window leaked after client destroy")
	}
}

// --- Iconify / icons ---

func TestIconifyDeiconify(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	app, c := launch(t, s, wm, clients.Config{
		Instance: "xterm", Class: "XTerm", Name: "shell", IconName: "sh",
		Width: 300, Height: 200,
	})
	if err := wm.Iconify(c); err != nil {
		t.Fatal(err)
	}
	if c.State != xproto.IconicState {
		t.Error("state not iconic")
	}
	st, _, _ := icccm.GetState(wm.conn, app.Win)
	if st.State != xproto.IconicState {
		t.Errorf("WM_STATE = %d", st.State)
	}
	// Frame hidden, icon visible.
	attrs, _ := wm.conn.GetWindowAttributes(c.frame.Window)
	if attrs.MapState != xproto.IsUnmapped {
		t.Error("frame still mapped while iconic")
	}
	if c.icon == nil {
		t.Fatal("no icon created")
	}
	iattrs, _ := wm.conn.GetWindowAttributes(c.icon.Window())
	if iattrs.MapState == xproto.IsUnmapped {
		t.Error("icon not mapped")
	}
	// The iconname button shows WM_ICON_NAME.
	if got := c.icon.tree.Find("iconname").Label(); got != "sh" {
		t.Errorf("icon name label = %q", got)
	}
	if err := wm.Deiconify(c); err != nil {
		t.Fatal(err)
	}
	if c.State != xproto.NormalState {
		t.Error("state not normal after deiconify")
	}
	attrs, _ = wm.conn.GetWindowAttributes(c.frame.Window)
	if attrs.MapState == xproto.IsUnmapped {
		t.Error("frame not remapped")
	}
}

func TestInitialStateIconic(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	_, c := launch(t, s, wm, clients.Config{
		Instance: "xterm", Class: "XTerm", Width: 100, Height: 100,
		Hints: &icccm.Hints{Flags: icccm.StateHint, InitialState: xproto.IconicState},
	})
	if c.State != xproto.IconicState {
		t.Error("WM_HINTS initial iconic state ignored")
	}
}

func TestIconPositionFromWMHints(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	_, c := launch(t, s, wm, clients.Config{
		Instance: "xterm", Class: "XTerm", Width: 100, Height: 100,
		Hints: &icccm.Hints{Flags: icccm.IconPositionHint, IconX: 77, IconY: 88},
	})
	if err := wm.Iconify(c); err != nil {
		t.Fatal(err)
	}
	g, _ := wm.conn.GetGeometry(c.icon.Window())
	if g.Rect.X != 77 || g.Rect.Y != 88 {
		t.Errorf("icon at (%d,%d), want (77,88)", g.Rect.X, g.Rect.Y)
	}
}

func TestIconClickDeiconifies(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	_, c := launch(t, s, wm, clients.Config{
		Instance: "xterm", Class: "XTerm", Width: 100, Height: 100,
		Hints: &icccm.Hints{Flags: icccm.IconPositionHint, IconX: 500, IconY: 500},
	})
	if err := wm.Iconify(c); err != nil {
		t.Fatal(err)
	}
	// Click the iconname button (template binds Btn1 to f.deiconify).
	nameObj := c.icon.tree.Find("iconname")
	gx, gy, _, err := wm.conn.TranslateCoordinates(nameObj.Window, wm.screens[0].Root, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	s.FakeMotion(gx, gy)
	s.FakeButtonPress(xproto.Button1, 0)
	s.FakeButtonRelease(xproto.Button1, 0)
	wm.Pump()
	if c.State != xproto.NormalState {
		t.Error("click on icon did not deiconify")
	}
}

// --- Template-driven decoration behavior ---

func TestTitlebarButtonRaises(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	_, c1 := launch(t, s, wm, clients.Config{Instance: "a", Class: "A", Width: 200, Height: 150})
	_, c2 := launch(t, s, wm, clients.Config{Instance: "b", Class: "B", Width: 200, Height: 150})
	// c2 is on top; raise c1 by clicking its name button (Btn1 : f.raise).
	nameObj := c1.frame.Find("name")
	gx, gy, _, err := wm.conn.TranslateCoordinates(nameObj.Window, wm.screens[0].Root, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Move c1's frame out from under c2 first so the click lands on it.
	wm.moveFrame(c1, 600, 600)
	gx, gy, _, _ = wm.conn.TranslateCoordinates(nameObj.Window, wm.screens[0].Root, 2, 2)
	s.FakeMotion(gx, gy)
	s.FakeButtonPress(xproto.Button1, 0)
	s.FakeButtonRelease(xproto.Button1, 0)
	wm.Pump()
	frames := wm.stackedFrames(wm.screens[0])
	if len(frames) < 2 {
		t.Fatalf("stacked frames: %v", frames)
	}
	if frames[len(frames)-1] != c1.frame.Window {
		t.Errorf("c1 not on top after titlebar click (top=%v c1=%v c2=%v)",
			frames[len(frames)-1], c1.frame.Window, c2.frame.Window)
	}
}

// --- E5: USPosition vs PPosition (paper §6.3.2) ---

func TestUSPositionAbsolute(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	scr := wm.screens[0]
	wm.PanTo(scr, 1000, 1000)
	app, _ := launch(t, s, wm, clients.Config{
		Instance: "xterm", Class: "XTerm", Width: 100, Height: 100,
		NormalHints: &icccm.NormalHints{Flags: icccm.USPosition, X: 100, Y: 100},
	})
	// "a USPosition of +100+100 would place the window at 100, 100 on
	// the desktop" — i.e. NOT currently visible.
	x, y, _, err := wm.conn.TranslateCoordinates(app.Win, scr.Desktop, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if x != 100 || y != 100 {
		t.Errorf("client at desktop (%d,%d), want (100,100)", x, y)
	}
}

func TestPPositionViewportRelative(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	scr := wm.screens[0]
	wm.PanTo(scr, 1000, 1000)
	app, _ := launch(t, s, wm, clients.Config{
		Instance: "xterm", Class: "XTerm", Width: 100, Height: 100,
		NormalHints: &icccm.NormalHints{Flags: icccm.PPosition, X: 100, Y: 100},
	})
	// "If a PPosition of +100+100 is used, the window would be placed
	// at 1100, 1100."
	x, y, _, err := wm.conn.TranslateCoordinates(app.Win, scr.Desktop, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if x != 1100 || y != 1100 {
		t.Errorf("client at desktop (%d,%d), want (1100,1100)", x, y)
	}
}

// --- E4: panning vs ICCCM (paper §6.3.1) ---

func TestPanNoConfigureNotify(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	scr := wm.screens[0]
	app, _ := launch(t, s, wm, clients.Config{
		Instance: "xterm", Class: "XTerm", Width: 100, Height: 100,
		NormalHints: &icccm.NormalHints{Flags: icccm.USPosition, X: 100, Y: 100},
	})
	app.Pump() // drain manage-time events
	wm.PanTo(scr, 25, 25)
	wm.Pump()
	for _, ev := range app.Pump() {
		if ev.Type == xproto.ConfigureNotify {
			t.Errorf("client received ConfigureNotify on pan: %+v", ev)
		}
	}
	// The client's real root position is now (75,75)...
	x, y, _, err := app.Conn.TranslateCoordinates(app.Win, scr.Root, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if x != 75 || y != 75 {
		t.Errorf("root-relative position (%d,%d), want (75,75)", x, y)
	}
	// ...but the client still believes it is at (100,100): the exact
	// stale-coordinates problem the paper describes.
	if app.BelievedRootX != 100 || app.BelievedRootY != 100 {
		t.Errorf("believed position (%d,%d), want the stale (100,100)",
			app.BelievedRootX, app.BelievedRootY)
	}
}

func TestSwmRootPopupPlacement(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	scr := wm.screens[0]
	app, _ := launch(t, s, wm, clients.Config{
		Instance: "xedit", Class: "XEdit", Width: 300, Height: 200,
		NormalHints: &icccm.NormalHints{Flags: icccm.USPosition, X: 100, Y: 100},
	})
	app.Pump()
	wm.PanTo(scr, 25, 25)
	wm.Pump()

	// Naive toolkit: positions on the real root with stale coordinates.
	dlgNaive, err := app.PopupDialog(10, 10, 50, 40, false)
	if err != nil {
		t.Fatal(err)
	}
	// OI-style toolkit: positions relative to SWM_ROOT.
	dlgSwm, err := app.PopupDialog(10, 10, 50, 40, true)
	if err != nil {
		t.Fatal(err)
	}
	winX, winY, _, _ := app.Conn.TranslateCoordinates(app.Win, scr.Root, 0, 0)
	nx, ny, _, _ := app.Conn.TranslateCoordinates(dlgNaive, scr.Root, 0, 0)
	sx, sy, _, _ := app.Conn.TranslateCoordinates(dlgSwm, scr.Root, 0, 0)
	// The SWM_ROOT dialog sits exactly at the intended offset.
	if sx-winX != 10 || sy-winY != 10 {
		t.Errorf("SWM_ROOT dialog offset (%d,%d), want (10,10)", sx-winX, sy-winY)
	}
	// The naive dialog is misplaced by exactly the pan amount.
	if nx-winX != 10+25 || ny-winY != 10+25 {
		t.Errorf("naive dialog offset (%d,%d), want (35,35) (stale by the pan)", nx-winX, ny-winY)
	}
}

// --- E6: sticky windows (paper §6.2) ---

func TestStickyResourceStartsSticky(t *testing.T) {
	db, _ := templates.Load(templates.OpenLook)
	db.MustPut("swm*xclock*sticky", "True")
	s, wm := newWM(t, Options{DB: db, VirtualDesktop: true})
	app, c := launch(t, s, wm, clients.Config{Instance: "xclock", Class: "XClock", Width: 120, Height: 120})
	if !c.Sticky {
		t.Fatal("xclock did not start sticky")
	}
	_, fparent, _, _ := app.Conn.QueryTree(c.frame.Window)
	if fparent != wm.screens[0].Root {
		t.Error("sticky frame not on the real root")
	}
	if got, _ := SwmRoot(app.Conn, app.Win); got != wm.screens[0].Root {
		t.Error("sticky client's SWM_ROOT should be the real root")
	}
}

func TestStickyWindowSurvivesPanning(t *testing.T) {
	db, _ := templates.Load(templates.OpenLook)
	db.MustPut("swm*xclock*sticky", "True")
	s, wm := newWM(t, Options{DB: db, VirtualDesktop: true})
	scr := wm.screens[0]
	clockApp, _ := launch(t, s, wm, clients.Config{Instance: "xclock", Class: "XClock", Width: 120, Height: 120})
	termApp, _ := launch(t, s, wm, clients.Config{Instance: "xterm", Class: "XTerm", Width: 200, Height: 100,
		NormalHints: &icccm.NormalHints{Flags: icccm.USPosition, X: 300, Y: 300}})
	cx0, cy0, _, _ := clockApp.Conn.TranslateCoordinates(clockApp.Win, scr.Root, 0, 0)
	tx0, ty0, _, _ := termApp.Conn.TranslateCoordinates(termApp.Win, scr.Root, 0, 0)
	wm.PanTo(scr, 200, 150)
	cx1, cy1, _, _ := clockApp.Conn.TranslateCoordinates(clockApp.Win, scr.Root, 0, 0)
	tx1, ty1, _, _ := termApp.Conn.TranslateCoordinates(termApp.Win, scr.Root, 0, 0)
	if cx1 != cx0 || cy1 != cy0 {
		t.Errorf("sticky window moved on pan: (%d,%d) -> (%d,%d)", cx0, cy0, cx1, cy1)
	}
	if tx1 != tx0-200 || ty1 != ty0-150 {
		t.Errorf("desktop window did not shift by the pan: (%d,%d) -> (%d,%d)", tx0, ty0, tx1, ty1)
	}
}

func TestStickUnstickRoundTrip(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	scr := wm.screens[0]
	wm.PanTo(scr, 100, 100)
	app, c := launch(t, s, wm, clients.Config{
		Instance: "xterm", Class: "XTerm", Width: 100, Height: 100,
		NormalHints: &icccm.NormalHints{Flags: icccm.USPosition, X: 150, Y: 150},
	})
	rx0, ry0, _, _ := app.Conn.TranslateCoordinates(app.Win, scr.Root, 0, 0)
	if err := wm.Stick(c); err != nil {
		t.Fatal(err)
	}
	rx1, ry1, _, _ := app.Conn.TranslateCoordinates(app.Win, scr.Root, 0, 0)
	if rx1 != rx0 || ry1 != ry0 {
		t.Errorf("stick moved the window on screen: (%d,%d) -> (%d,%d)", rx0, ry0, rx1, ry1)
	}
	if got, _ := SwmRoot(app.Conn, app.Win); got != scr.Root {
		t.Error("SWM_ROOT not updated on stick")
	}
	// Pan: the stuck window must not move.
	wm.PanTo(scr, 0, 0)
	rx2, ry2, _, _ := app.Conn.TranslateCoordinates(app.Win, scr.Root, 0, 0)
	if rx2 != rx1 || ry2 != ry1 {
		t.Error("stuck window moved with pan")
	}
	if err := wm.Unstick(c); err != nil {
		t.Fatal(err)
	}
	if got, _ := SwmRoot(app.Conn, app.Win); got != scr.Desktop {
		t.Error("SWM_ROOT not restored on unstick")
	}
	// After unstick at pan (0,0), screen position is preserved.
	rx3, ry3, _, _ := app.Conn.TranslateCoordinates(app.Win, scr.Root, 0, 0)
	if rx3 != rx2 || ry3 != ry2 {
		t.Errorf("unstick moved the window: (%d,%d) -> (%d,%d)", rx2, ry2, rx3, ry3)
	}
}

func TestStickyDecorationResource(t *testing.T) {
	// §6.2: "decorations can be dependent on whether or not the client
	// window is sticky": swm*sticky*decoration: stickypanel.
	db, _ := templates.Load(templates.OpenLook)
	db.MustPut("swm*sticky*decoration", "stickyPanel")
	db.MustPut("Swm*panel.stickyPanel", "button pin +0+0\npanel client +0+1")
	s, wm := newWM(t, Options{DB: db, VirtualDesktop: true})
	_, c := launch(t, s, wm, clients.Config{Instance: "xterm", Class: "XTerm", Width: 100, Height: 100})
	if c.decoration != "openLook" {
		t.Fatalf("initial decoration = %q", c.decoration)
	}
	if err := wm.Stick(c); err != nil {
		t.Fatal(err)
	}
	if c.decoration != "stickyPanel" {
		t.Errorf("sticky decoration = %q, want stickyPanel", c.decoration)
	}
	if err := wm.Unstick(c); err != nil {
		t.Fatal(err)
	}
	if c.decoration != "openLook" {
		t.Errorf("decoration after unstick = %q", c.decoration)
	}
	_ = s
}

// --- E7: swmcmd (paper §5) ---

func TestSwmcmdExecutesCommand(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	scr := wm.screens[0]
	_, c := launch(t, s, wm, clients.Config{Instance: "xterm", Class: "XTerm", Width: 100, Height: 100})
	// A second client writes SWM_COMMAND on the root, like swmcmd does.
	cmdr := s.Connect("swmcmd")
	err := cmdr.ChangeProperty(scr.Root, cmdr.InternAtom("SWM_COMMAND"),
		cmdr.InternAtom("STRING"), 8, xproto.PropModeReplace,
		[]byte("f.iconify(XTerm)"))
	if err != nil {
		t.Fatal(err)
	}
	wm.Pump()
	if c.State != xproto.IconicState {
		t.Error("swmcmd f.iconify(XTerm) had no effect")
	}
	// The property is consumed.
	_, ok, _ := cmdr.GetProperty(scr.Root, cmdr.InternAtom("SWM_COMMAND"))
	if ok {
		t.Error("SWM_COMMAND property not deleted after execution")
	}
}

func TestSwmcmdMultipleFunctions(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	scr := wm.screens[0]
	app, c := launch(t, s, wm, clients.Config{Instance: "xterm", Class: "XTerm", Width: 200, Height: 100,
		NormalHints: &icccm.NormalHints{Flags: icccm.USPosition, X: 50, Y: 60}})
	cmdr := s.Connect("swmcmd")
	// f.save f.zoom — the paper's own two-functions-per-binding example.
	err := cmdr.ChangeProperty(scr.Root, cmdr.InternAtom("SWM_COMMAND"),
		cmdr.InternAtom("STRING"), 8, xproto.PropModeReplace,
		[]byte("f.save(XTerm) f.zoom(XTerm)"))
	if err != nil {
		t.Fatal(err)
	}
	wm.Pump()
	g, _ := app.Conn.GetGeometry(app.Win)
	if g.Rect.Width <= 200 {
		t.Errorf("zoom did not expand the client: %dx%d", g.Rect.Width, g.Rect.Height)
	}
	// Restore brings it back.
	err = cmdr.ChangeProperty(scr.Root, cmdr.InternAtom("SWM_COMMAND"),
		cmdr.InternAtom("STRING"), 8, xproto.PropModeReplace,
		[]byte("f.restore(XTerm)"))
	if err != nil {
		t.Fatal(err)
	}
	wm.Pump()
	g, _ = app.Conn.GetGeometry(app.Win)
	if g.Rect.Width != 200 || g.Rect.Height != 100 {
		t.Errorf("restore: client %dx%d, want 200x100", g.Rect.Width, g.Rect.Height)
	}
	if c.FrameRect.X != 50-c.clientSlot.Rect.X || c.FrameRect.Y != 60-c.clientSlot.Rect.Y {
		t.Errorf("restore position: frame at (%d,%d)", c.FrameRect.X, c.FrameRect.Y)
	}
}

// --- E8: the five invocation modes (paper §4.2) ---

func TestInvocationModeCurrent(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	_, c := launch(t, s, wm, clients.Config{Instance: "xterm", Class: "XTerm", Width: 100, Height: 100})
	err := wm.ExecuteString(&FuncContext{Client: c, Screen: c.scr}, "f.iconify")
	if err != nil {
		t.Fatal(err)
	}
	if c.State != xproto.IconicState {
		t.Error("f.iconify did not iconify the context window")
	}
}

func TestInvocationModeClass(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	_, c1 := launch(t, s, wm, clients.Config{Instance: "blob1", Class: "blob", Width: 100, Height: 100})
	_, c2 := launch(t, s, wm, clients.Config{Instance: "blob2", Class: "blob", Width: 100, Height: 100})
	_, other := launch(t, s, wm, clients.Config{Instance: "xterm", Class: "XTerm", Width: 100, Height: 100})
	err := wm.ExecuteString(&FuncContext{Screen: wm.screens[0]}, "f.iconify(blob)")
	if err != nil {
		t.Fatal(err)
	}
	if c1.State != xproto.IconicState || c2.State != xproto.IconicState {
		t.Error("class-wide iconify missed a blob window")
	}
	if other.State == xproto.IconicState {
		t.Error("class-wide iconify hit an unrelated window")
	}
}

func TestInvocationModeWindowID(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	app, c := launch(t, s, wm, clients.Config{Instance: "xterm", Class: "XTerm", Width: 100, Height: 100})
	cmd := "f.iconify(#0x" + hex32(uint32(app.Win)) + ")"
	if err := wm.ExecuteString(&FuncContext{Screen: wm.screens[0]}, cmd); err != nil {
		t.Fatal(err)
	}
	if c.State != xproto.IconicState {
		t.Errorf("%s had no effect", cmd)
	}
}

func TestInvocationModeUnderPointer(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	app, c := launch(t, s, wm, clients.Config{Instance: "xterm", Class: "XTerm", Width: 200, Height: 200,
		NormalHints: &icccm.NormalHints{Flags: icccm.PPosition, X: 300, Y: 300}})
	// Put the pointer over the client.
	rx, ry, _, _ := app.Conn.TranslateCoordinates(app.Win, wm.screens[0].Root, 50, 50)
	s.FakeMotion(rx, ry)
	wm.Pump()
	if err := wm.ExecuteString(&FuncContext{Screen: wm.screens[0]}, "f.iconify(#$)"); err != nil {
		t.Fatal(err)
	}
	if c.State != xproto.IconicState {
		t.Error("f.iconify(#$) missed the window under the pointer")
	}
}

func TestInvocationModeMultiplePrompts(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	app1, c1 := launch(t, s, wm, clients.Config{Instance: "a", Class: "A", Width: 150, Height: 150,
		NormalHints: &icccm.NormalHints{Flags: icccm.PPosition, X: 100, Y: 100}})
	app2, c2 := launch(t, s, wm, clients.Config{Instance: "b", Class: "B", Width: 150, Height: 150,
		NormalHints: &icccm.NormalHints{Flags: icccm.PPosition, X: 500, Y: 100}})
	if err := wm.ExecuteString(&FuncContext{Screen: wm.screens[0]}, "f.iconify(multiple)"); err != nil {
		t.Fatal(err)
	}
	// Each subsequent click iconifies the clicked window.
	rx, ry, _, _ := app1.Conn.TranslateCoordinates(app1.Win, wm.screens[0].Root, 10, 10)
	s.FakeMotion(rx, ry)
	s.FakeButtonPress(xproto.Button1, 0)
	s.FakeButtonRelease(xproto.Button1, 0)
	wm.Pump()
	if c1.State != xproto.IconicState {
		t.Error("first prompted click did not iconify")
	}
	rx, ry, _, _ = app2.Conn.TranslateCoordinates(app2.Win, wm.screens[0].Root, 10, 10)
	s.FakeMotion(rx, ry)
	s.FakeButtonPress(xproto.Button1, 0)
	s.FakeButtonRelease(xproto.Button1, 0)
	wm.Pump()
	if c2.State != xproto.IconicState {
		t.Error("second prompted click did not iconify")
	}
}

func hex32(v uint32) string {
	const digits = "0123456789abcdef"
	var out [8]byte
	for i := 7; i >= 0; i-- {
		out[i] = digits[v&0xf]
		v >>= 4
	}
	return strings.TrimLeft(string(out[:]), "0")
}

// --- E9: SHAPE (paper §5.1) ---

func TestShapedClientGetsShapedDecoration(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	app, err := clients.Oclock(s)
	if err != nil {
		t.Fatal(err)
	}
	wm.Pump()
	c, ok := wm.ClientOf(app.Win)
	if !ok {
		t.Fatal("oclock not managed")
	}
	if !c.Shaped {
		t.Error("oclock not detected as shaped")
	}
	// The template maps shaped clients to the invisible shapeit panel.
	if c.decoration != "shapeit" {
		t.Errorf("decoration = %q, want shapeit", c.decoration)
	}
	// The frame is shaped to its children (just the client slot).
	shaped, _, err := wm.conn.ShapeQuery(c.frame.Window)
	if err != nil {
		t.Fatal(err)
	}
	if !shaped {
		t.Error("shapeit frame is not shaped")
	}
}

func TestRectangularClientKeepsNormalDecoration(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	app, _ := clients.Xclock(s)
	wm.Pump()
	c, _ := wm.ClientOf(app.Win)
	if c.decoration != "openLook" {
		t.Errorf("decoration = %q, want openLook", c.decoration)
	}
}

func TestShapeChangeRedecorates(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	app, c := launch(t, s, wm, clients.Config{Instance: "morph", Class: "Morph", Width: 100, Height: 100})
	if c.decoration != "openLook" {
		t.Fatalf("initial decoration = %q", c.decoration)
	}
	// The client becomes shaped at runtime.
	err := app.Conn.ShapeCombineRectangles(app.Win, []xproto.Rect{{Width: 50, Height: 100}})
	if err != nil {
		t.Fatal(err)
	}
	wm.Pump()
	if c.decoration != "shapeit" {
		t.Errorf("decoration after shaping = %q, want shapeit", c.decoration)
	}
}

// --- E10: the panner (paper §6.1) ---

func TestPannerCreatedAndManaged(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true, EnablePanner: true})
	scr := wm.screens[0]
	p := scr.Panner()
	if p == nil {
		t.Fatal("no panner")
	}
	// The panner is managed (reparented) and sticky.
	if p.Client() == nil || !p.Client().Sticky {
		t.Error("panner not managed as a sticky client")
	}
	_ = s
}

func TestPannerShowsMiniatures(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true, EnablePanner: true})
	scr := wm.screens[0]
	launch(t, s, wm, clients.Config{Instance: "a", Class: "A", Width: 400, Height: 300,
		NormalHints: &icccm.NormalHints{Flags: icccm.USPosition, X: 800, Y: 600}})
	launch(t, s, wm, clients.Config{Instance: "b", Class: "B", Width: 400, Height: 300,
		NormalHints: &icccm.NormalHints{Flags: icccm.USPosition, X: 2000, Y: 1500}})
	minis := scr.Panner().Miniatures()
	if len(minis) != 2 {
		t.Fatalf("panner shows %d miniatures, want 2", len(minis))
	}
	// Miniature positions reflect desktop coords / scale.
	for mini, c := range minis {
		g, err := wm.conn.GetGeometry(mini)
		if err != nil {
			t.Fatal(err)
		}
		wantX := c.FrameRect.X / scr.Panner().Scale()
		if g.Rect.X != wantX {
			t.Errorf("mini for %s at x=%d, want %d", c.Class.Instance, g.Rect.X, wantX)
		}
	}
}

func TestPannerClickPans(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true, EnablePanner: true})
	scr := wm.screens[0]
	p := scr.Panner()
	// Click in the middle of the panner.
	rx, ry, _, err := wm.conn.TranslateCoordinates(p.Window(), scr.Root, 60, 40)
	if err != nil {
		t.Fatal(err)
	}
	s.FakeMotion(rx, ry)
	s.FakeButtonPress(xproto.Button1, 0)
	s.FakeButtonRelease(xproto.Button1, 0)
	wm.Pump()
	wantX := geom.Clamp(60*p.Scale()-scr.Width/2, 0, scr.DesktopW-scr.Width)
	wantY := geom.Clamp(40*p.Scale()-scr.Height/2, 0, scr.DesktopH-scr.Height)
	if scr.PanX != wantX || scr.PanY != wantY {
		t.Errorf("pan = (%d,%d), want (%d,%d)", scr.PanX, scr.PanY, wantX, wantY)
	}
}

func TestPannerDragMiniatureMovesClient(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true, EnablePanner: true})
	scr := wm.screens[0]
	_, c := launch(t, s, wm, clients.Config{Instance: "a", Class: "A", Width: 400, Height: 300,
		NormalHints: &icccm.NormalHints{Flags: icccm.USPosition, X: 800, Y: 600}})
	p := scr.Panner()
	// Find the miniature and press Btn2 on it.
	var miniX, miniY int
	for mini, mc := range p.Miniatures() {
		if mc == c {
			g, _ := wm.conn.GetGeometry(mini)
			miniX, miniY = g.Rect.X+1, g.Rect.Y+1
		}
	}
	rx, ry, _, _ := wm.conn.TranslateCoordinates(p.Window(), scr.Root, miniX, miniY)
	s.FakeMotion(rx, ry)
	s.FakeButtonPress(xproto.Button2, 0)
	wm.Pump()
	// Drop at panner (100, 70) -> desktop (100*scale, 70*scale).
	rx, ry, _, _ = wm.conn.TranslateCoordinates(p.Window(), scr.Root, 100, 70)
	s.FakeMotion(rx, ry)
	s.FakeButtonRelease(xproto.Button2, 0)
	wm.Pump()
	if c.FrameRect.X != 100*p.Scale() || c.FrameRect.Y != 70*p.Scale() {
		t.Errorf("client at (%d,%d), want (%d,%d)",
			c.FrameRect.X, c.FrameRect.Y, 100*p.Scale(), 70*p.Scale())
	}
}

func TestPannerResizeResizesDesktop(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true, EnablePanner: true})
	scr := wm.screens[0]
	p := scr.Panner()
	p.handleResize(200, 160)
	if scr.DesktopW != 200*p.Scale() || scr.DesktopH != 160*p.Scale() {
		t.Errorf("desktop = %dx%d, want %dx%d", scr.DesktopW, scr.DesktopH,
			200*p.Scale(), 160*p.Scale())
	}
	_ = s
}

// TestDesktopSizeClampedTo32767 holds the paper's 32767x32767 limit on
// the desktop New creates: 4x a 9000x9000 screen is over it in both
// dimensions.
func TestDesktopSizeClampedTo32767(t *testing.T) {
	db, err := templates.Load(templates.OpenLook)
	if err != nil {
		t.Fatal(err)
	}
	wm, err := New(xserver.NewServer(xserver.ScreenSpec{Width: 9000, Height: 9000}),
		Options{DB: db, VirtualDesktop: true})
	if err != nil {
		t.Fatal(err)
	}
	scr := wm.screens[0]
	if scr.DesktopW != MaxDesktopSize || scr.DesktopH != MaxDesktopSize {
		t.Errorf("desktop = %dx%d, want clamped to %d", scr.DesktopW, scr.DesktopH, MaxDesktopSize)
	}
}

// TestResizeDesktopClampedTo32767 holds the paper's 32767x32767 limit
// on a run-time resize (the panner drag path), on both the WM's fields
// and the server's desktop window, and the pan inside the new bounds.
func TestResizeDesktopClampedTo32767(t *testing.T) {
	_, wm := newWM(t, Options{VirtualDesktop: true})
	scr := wm.screens[0]
	wm.ResizeDesktop(scr, 100000, 50000)
	if scr.DesktopW != MaxDesktopSize || scr.DesktopH != MaxDesktopSize {
		t.Errorf("desktop = %dx%d, want clamped to %d", scr.DesktopW, scr.DesktopH, MaxDesktopSize)
	}
	g, err := wm.Conn().GetGeometry(scr.Desktop)
	if err != nil {
		t.Fatal(err)
	}
	if g.Rect.Width != MaxDesktopSize || g.Rect.Height != MaxDesktopSize {
		t.Errorf("desktop window = %dx%d, want %d", g.Rect.Width, g.Rect.Height, MaxDesktopSize)
	}
	wm.PanTo(scr, 100000, 100000)
	if scr.PanX != MaxDesktopSize-scr.Width || scr.PanY != MaxDesktopSize-scr.Height {
		t.Errorf("pan = (%d,%d), want (%d,%d)", scr.PanX, scr.PanY,
			MaxDesktopSize-scr.Width, MaxDesktopSize-scr.Height)
	}
}

// --- pan functions and scrollbars ---

func TestPanFunctions(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	scr := wm.screens[0]
	ctx := &FuncContext{Screen: scr}
	if err := wm.ExecuteString(ctx, "f.panhorizontal(100) f.panvertical(50)"); err != nil {
		t.Fatal(err)
	}
	if scr.PanX != 100 || scr.PanY != 50 {
		t.Errorf("pan = (%d,%d), want (100,50)", scr.PanX, scr.PanY)
	}
	// The desktop window moved with the pan, not just the fields.
	if g, err := wm.Conn().GetGeometry(scr.Desktop); err != nil {
		t.Fatal(err)
	} else if g.Rect.X != -100 || g.Rect.Y != -50 {
		t.Errorf("desktop window at (%d,%d), want (-100,-50)", g.Rect.X, g.Rect.Y)
	}
	if err := wm.ExecuteString(ctx, "f.pangoto(0,0)"); err != nil {
		t.Fatal(err)
	}
	if scr.PanX != 0 || scr.PanY != 0 {
		t.Errorf("pangoto: (%d,%d)", scr.PanX, scr.PanY)
	}
	// Pans clamp to the desktop bounds.
	if err := wm.ExecuteString(ctx, "f.panhorizontal(999999)"); err != nil {
		t.Fatal(err)
	}
	if scr.PanX != scr.DesktopW-scr.Width {
		t.Errorf("pan not clamped: %d", scr.PanX)
	}
	_ = s
}

func TestScrollbarsPan(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true, EnableScrollbars: true})
	scr := wm.screens[0]
	if scr.hscroll == xproto.None || scr.vscroll == xproto.None {
		t.Fatal("scrollbars not created")
	}
	// Click in the middle of the horizontal scrollbar.
	length := scr.Width - scrollbarThickness
	s.FakeMotion(length/2, scr.Height-scrollbarThickness/2)
	s.FakeButtonPress(xproto.Button1, 0)
	s.FakeButtonRelease(xproto.Button1, 0)
	wm.Pump()
	want := geom.Clamp(scr.DesktopW/2-scr.Width/2, 0, scr.DesktopW-scr.Width)
	if scr.PanX != want {
		t.Errorf("scrollbar pan = %d, want %d", scr.PanX, want)
	}
}

func TestWarpFunctions(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	s.FakeMotion(500, 500)
	ctx := &FuncContext{Screen: wm.screens[0]}
	// The paper's binding example: f.warpvertical(-50).
	if err := wm.ExecuteString(ctx, "f.warpvertical(-50)"); err != nil {
		t.Fatal(err)
	}
	info := wm.conn.QueryPointer()
	if info.RootY != 450 {
		t.Errorf("pointer y = %d, want 450", info.RootY)
	}
	if err := wm.ExecuteString(ctx, "f.warphorizontal(25)"); err != nil {
		t.Fatal(err)
	}
	info = wm.conn.QueryPointer()
	if info.RootX != 525 {
		t.Errorf("pointer x = %d, want 525", info.RootX)
	}
}

// --- f.delete / protocols ---

func TestDeleteUsesProtocol(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	app, c := launch(t, s, wm, clients.Config{
		Instance: "xterm", Class: "XTerm", Width: 100, Height: 100,
		Protocols: []string{"WM_DELETE_WINDOW"},
	})
	if err := wm.ExecuteString(&FuncContext{Client: c, Screen: c.scr}, "f.delete"); err != nil {
		t.Fatal(err)
	}
	app.Pump()
	if app.DeleteRequested != 1 {
		t.Errorf("DeleteRequested = %d, want 1", app.DeleteRequested)
	}
	// Client still alive: the protocol asks politely.
	if app.Conn.Closed() {
		t.Error("client killed despite WM_DELETE_WINDOW support")
	}
}

func TestDeleteKillsNonParticipant(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	app, c := launch(t, s, wm, clients.Config{Instance: "old", Class: "Old", Width: 100, Height: 100})
	if err := wm.ExecuteString(&FuncContext{Client: c, Screen: c.scr}, "f.delete"); err != nil {
		t.Fatal(err)
	}
	if !app.Conn.Closed() {
		t.Error("non-participating client not killed")
	}
	wm.Pump()
	if _, ok := wm.ClientOf(app.Win); ok {
		t.Error("killed client still managed")
	}
	_ = s
}

// --- interactive move ---

func TestInteractiveMove(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	_, c := launch(t, s, wm, clients.Config{Instance: "xterm", Class: "XTerm", Width: 200, Height: 150,
		NormalHints: &icccm.NormalHints{Flags: icccm.PPosition, X: 100, Y: 100}})
	// Start the move at the pointer's position over the titlebar.
	nameObj := c.frame.Find("name")
	rx, ry, _, _ := wm.conn.TranslateCoordinates(nameObj.Window, wm.screens[0].Root, 5, 5)
	s.FakeMotion(rx, ry)
	wm.Pump()
	if err := wm.ExecuteString(&FuncContext{Client: c, Screen: c.scr}, "f.move"); err != nil {
		t.Fatal(err)
	}
	// Drag 120 px right, 80 px down, release.
	s.FakeMotion(rx+120, ry+80)
	wm.Pump()
	s.FakeButtonRelease(xproto.Button1, 0)
	wm.Pump()
	wantX, wantY := 100-c.clientSlot.Rect.X+120, 100-c.clientSlot.Rect.Y+80
	if c.FrameRect.X != wantX || c.FrameRect.Y != wantY {
		t.Errorf("frame at (%d,%d), want (%d,%d)", c.FrameRect.X, c.FrameRect.Y, wantX, wantY)
	}
}

// --- menus ---

func TestMenuPopupAndItemExecution(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	_, c := launch(t, s, wm, clients.Config{Instance: "xterm", Class: "XTerm", Width: 200, Height: 150})
	scr := wm.screens[0]
	s.FakeMotion(400, 400)
	if err := wm.PopupMenu(scr, "windowMenu", c); err != nil {
		t.Fatal(err)
	}
	menus := scr.OpenMenus()
	if len(menus) != 1 {
		t.Fatalf("%d menus open, want 1", len(menus))
	}
	// Click the Iconify item (bound <Btn1Up> : f.iconify).
	item := menus[0].Tree().Find("wmIconify")
	if item == nil {
		t.Fatal("wmIconify item missing")
	}
	rx, ry, _, _ := wm.conn.TranslateCoordinates(item.Window, scr.Root, 2, 2)
	s.FakeMotion(rx, ry)
	s.FakeButtonPress(xproto.Button1, 0)
	s.FakeButtonRelease(xproto.Button1, 0)
	wm.Pump()
	if c.State != xproto.IconicState {
		t.Error("menu item did not iconify the context client")
	}
	if len(scr.OpenMenus()) != 0 {
		t.Error("menu not dismissed after item release")
	}
}

// --- root panels & icon holders ---

func TestRootPanelManagedAndFunctional(t *testing.T) {
	db, _ := templates.Load(templates.OpenLook)
	db.MustPut("swm*rootPanels", "RootPanel")
	db.MustPut("Swm*panel.RootPanel",
		"button quit +0+0\nbutton restart +1+0\nbutton iconify +2+0\nbutton deiconify +3+0\n"+
			"button move +0+1\nbutton resize +1+1\nbutton raise +2+1\nbutton lower +3+1")
	db.MustPut("swm*button.quit.bindings", "<Btn1> : f.quit")
	s, wm := newWM(t, Options{DB: db, VirtualDesktop: true})
	scr := wm.screens[0]
	panels := scr.RootPanels()
	if len(panels) != 1 {
		t.Fatalf("%d root panels, want 1", len(panels))
	}
	rp := panels[0]
	if !rp.isRootPanel {
		t.Error("root panel client not flagged internal")
	}
	// It is reparented (managed) like a client: its frame exists.
	if rp.frame == nil || rp.frame.Window == xproto.None {
		t.Fatal("root panel not decorated")
	}
	// Clicking quit executes f.quit.
	// Find the quit button inside the panel content tree.
	var quitWin xproto.XID
	for w, ref := range wm.byObjWin {
		if ref.obj != nil && ref.obj.Name == "quit" && ref.client == rp {
			quitWin = w
		}
	}
	if quitWin == xproto.None {
		t.Fatal("quit button not registered")
	}
	rx, ry, _, _ := wm.conn.TranslateCoordinates(quitWin, scr.Root, 2, 2)
	s.FakeMotion(rx, ry)
	s.FakeButtonPress(xproto.Button1, 0)
	s.FakeButtonRelease(xproto.Button1, 0)
	wm.Pump()
	if !wm.QuitRequested() {
		t.Error("quit button did not run f.quit")
	}
}

func TestRootPanelCanBeIconified(t *testing.T) {
	db, _ := templates.Load(templates.OpenLook)
	db.MustPut("swm*rootPanels", "RootPanel")
	db.MustPut("Swm*panel.RootPanel", "button quit +0+0")
	s, wm := newWM(t, Options{DB: db, VirtualDesktop: true})
	rp := wm.screens[0].RootPanels()[0]
	if err := wm.Iconify(rp); err != nil {
		t.Fatal(err)
	}
	if rp.State != xproto.IconicState {
		t.Error("root panel cannot be iconified")
	}
	_ = s
}

func TestIconHolderCollectsIcons(t *testing.T) {
	db, _ := templates.Load(templates.OpenLook)
	db.MustPut("swm*iconHolders", "termBox")
	db.MustPut("swm*iconHolder.termBox.class", "XTerm")
	db.MustPut("swm*iconHolder.termBox.geometry", "200x150+900+0")
	s, wm := newWM(t, Options{DB: db, VirtualDesktop: true})
	scr := wm.screens[0]
	if len(scr.IconHolders()) != 1 {
		t.Fatalf("%d holders", len(scr.IconHolders()))
	}
	holder := scr.IconHolders()[0]
	_, term := launch(t, s, wm, clients.Config{Instance: "xterm", Class: "XTerm", Width: 100, Height: 100})
	_, clock := launch(t, s, wm, clients.Config{Instance: "xclock", Class: "XClock", Width: 100, Height: 100})
	if err := wm.Iconify(term); err != nil {
		t.Fatal(err)
	}
	if err := wm.Iconify(clock); err != nil {
		t.Fatal(err)
	}
	// The xterm icon is held; the xclock icon is not.
	if len(holder.Icons()) != 1 || holder.Icons()[0] != term {
		t.Errorf("holder icons: %v", holder.Icons())
	}
	_, parent, _, _ := wm.conn.QueryTree(term.icon.Window())
	if parent != holder.Window() {
		t.Error("held icon not inside the holder window")
	}
	_, parent, _, _ = wm.conn.QueryTree(clock.icon.Window())
	if parent == holder.Window() {
		t.Error("xclock icon wrongly captured by the XTerm holder")
	}
}

func TestIconHolderHideWhenEmpty(t *testing.T) {
	db, _ := templates.Load(templates.OpenLook)
	db.MustPut("swm*iconHolders", "box")
	db.MustPut("swm*iconHolder.box.hideWhenEmpty", "True")
	s, wm := newWM(t, Options{DB: db, VirtualDesktop: true})
	holder := wm.screens[0].IconHolders()[0]
	attrs, _ := wm.conn.GetWindowAttributes(holder.Window())
	if attrs.MapState != xproto.IsUnmapped {
		t.Error("empty hideWhenEmpty holder is mapped")
	}
	_, c := launch(t, s, wm, clients.Config{Instance: "xterm", Class: "XTerm", Width: 100, Height: 100})
	if err := wm.Iconify(c); err != nil {
		t.Fatal(err)
	}
	attrs, _ = wm.conn.GetWindowAttributes(holder.Window())
	if attrs.MapState == xproto.IsUnmapped {
		t.Error("holder with an icon still hidden")
	}
	if err := wm.Deiconify(c); err != nil {
		t.Fatal(err)
	}
	// Icon unmapped but still present (held); holder stays mapped only
	// while it has iconic entries.
}

func TestRootIconCreated(t *testing.T) {
	db, _ := templates.Load(templates.OpenLook)
	db.MustPut("swm*rootIcons", "trash")
	db.MustPut("Swm*panel.trash", "button trashcan +0+0")
	db.MustPut("swm*rootIcon.trash.geometry", "+500+700")
	s, wm := newWM(t, Options{DB: db, VirtualDesktop: true})
	scr := wm.screens[0]
	wins := scr.RootIconWindows()
	if len(wins) != 1 {
		t.Fatalf("%d root icons", len(wins))
	}
	g, err := wm.conn.GetGeometry(wins[0])
	if err != nil {
		t.Fatal(err)
	}
	if g.Rect.X != 500 || g.Rect.Y != 700 {
		t.Errorf("root icon at (%d,%d), want (500,700)", g.Rect.X, g.Rect.Y)
	}
	_ = s
}

// --- multi-screen ---

func TestMultiScreenManagement(t *testing.T) {
	s := xserver.NewServer(
		xserver.ScreenSpec{Width: 1152, Height: 900},
		xserver.ScreenSpec{Width: 1024, Height: 768, Monochrome: true},
	)
	db, _ := templates.Load(templates.OpenLook)
	wm, err := New(s, Options{DB: db, VirtualDesktop: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(wm.Screens()) != 2 {
		t.Fatalf("%d screens", len(wm.Screens()))
	}
	app0, _ := clients.Launch(s, clients.Config{Instance: "a", Class: "A", Width: 100, Height: 100, Screen: 0})
	app1, _ := clients.Launch(s, clients.Config{Instance: "b", Class: "B", Width: 100, Height: 100, Screen: 1})
	wm.Pump()
	c0, ok0 := wm.ClientOf(app0.Win)
	c1, ok1 := wm.ClientOf(app1.Win)
	if !ok0 || !ok1 {
		t.Fatal("clients not managed on both screens")
	}
	if c0.scr.Num != 0 || c1.scr.Num != 1 {
		t.Errorf("screen assignment wrong: %d, %d", c0.scr.Num, c1.scr.Num)
	}
	// Pan on screen 0 does not disturb screen 1.
	wm.PanTo(wm.Screens()[0], 100, 100)
	if wm.Screens()[1].PanX != 0 {
		t.Error("pan leaked across screens")
	}
}

// --- WM restart (save-set survival) ---

func TestRestartClientsSurvive(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	app, _ := launch(t, s, wm, clients.Config{Instance: "xterm", Class: "XTerm", Width: 200, Height: 150,
		Command: []string{"xterm"}})
	// f.restart: the WM shuts down; clients must survive.
	if err := wm.ExecuteString(&FuncContext{Screen: wm.screens[0]}, "f.restart"); err != nil {
		t.Fatal(err)
	}
	if !wm.RestartRequested() {
		t.Fatal("restart not requested")
	}
	wm.Shutdown()
	// Window alive and mapped on the root.
	attrs, err := app.Conn.GetWindowAttributes(app.Win)
	if err != nil {
		t.Fatalf("client window died across restart: %v", err)
	}
	if attrs.MapState != xproto.IsViewable {
		t.Error("client not viewable after WM shutdown")
	}
	// A new WM adopts it.
	db2, _ := templates.Load(templates.OpenLook)
	wm2, err := New(s, Options{DB: db2, VirtualDesktop: true})
	if err != nil {
		t.Fatal(err)
	}
	wm2.Pump()
	if _, ok := wm2.ClientOf(app.Win); !ok {
		t.Error("new WM did not adopt the surviving client")
	}
}

// --- zoom / save / restore ---

func TestZoomFillsViewport(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	scr := wm.screens[0]
	wm.PanTo(scr, 500, 400)
	app, c := launch(t, s, wm, clients.Config{Instance: "xterm", Class: "XTerm", Width: 200, Height: 150,
		NormalHints: &icccm.NormalHints{Flags: icccm.PPosition, X: 10, Y: 10}})
	if err := wm.ExecuteString(&FuncContext{Client: c, Screen: scr}, "f.save f.zoom"); err != nil {
		t.Fatal(err)
	}
	// The zoomed frame occupies the viewport: frame at pan origin.
	if c.FrameRect.X != 500 || c.FrameRect.Y != 400 {
		t.Errorf("zoomed frame at (%d,%d), want pan origin (500,400)", c.FrameRect.X, c.FrameRect.Y)
	}
	if c.FrameRect.Width != scr.Width || c.FrameRect.Height != scr.Height {
		t.Errorf("zoomed frame %dx%d, want %dx%d", c.FrameRect.Width, c.FrameRect.Height, scr.Width, scr.Height)
	}
	if err := wm.ExecuteString(&FuncContext{Client: c, Screen: scr}, "f.restore"); err != nil {
		t.Fatal(err)
	}
	g, _ := app.Conn.GetGeometry(app.Win)
	if g.Rect.Width != 200 || g.Rect.Height != 150 {
		t.Errorf("restored client %dx%d", g.Rect.Width, g.Rect.Height)
	}
}

// --- dynamic buttons (f.setlabel / f.setbindings) ---

func TestSetLabelChangesButton(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	_, c := launch(t, s, wm, clients.Config{Instance: "xterm", Class: "XTerm", Width: 200, Height: 150})
	err := wm.ExecuteString(&FuncContext{Client: c, Screen: c.scr}, "f.setlabel(nail=BUSY)")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.frame.Find("nail").Label(); got != "BUSY" {
		t.Errorf("nail label = %q", got)
	}
	_ = s
}

func TestSetBindingsChangesBehavior(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	_, c := launch(t, s, wm, clients.Config{Instance: "xterm", Class: "XTerm", Width: 200, Height: 150})
	// Rebind the nail button from f.stick to f.iconify.
	err := wm.ExecuteString(&FuncContext{Client: c, Screen: c.scr},
		"f.setbindings(nail=<Btn1>:f.iconify)")
	if err != nil {
		t.Fatal(err)
	}
	nail := c.frame.Find("nail")
	rx, ry, _, _ := wm.conn.TranslateCoordinates(nail.Window, wm.screens[0].Root, 2, 2)
	s.FakeMotion(rx, ry)
	s.FakeButtonPress(xproto.Button1, 0)
	s.FakeButtonRelease(xproto.Button1, 0)
	wm.Pump()
	if c.State != xproto.IconicState {
		t.Error("rebound button still runs the old function")
	}
	if c.Sticky {
		t.Error("old binding (f.stick) also ran")
	}
}

// --- unknown function ---

func TestUnknownFunctionErrors(t *testing.T) {
	_, wm := newWM(t, Options{})
	err := wm.ExecuteString(&FuncContext{Screen: wm.screens[0]}, "f.blowupmonitor")
	if err == nil {
		t.Error("unknown function accepted")
	}
}

func TestShapedClientShapePropagatesToFrame(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	app, err := clients.Oclock(s)
	if err != nil {
		t.Fatal(err)
	}
	wm.Pump()
	c, _ := wm.ClientOf(app.Win)
	shaped, rects, err := wm.conn.ShapeQuery(c.frame.Window)
	if err != nil {
		t.Fatal(err)
	}
	if !shaped {
		t.Fatal("frame not shaped")
	}
	// The frame shape must be the client's diamond (two rects), not the
	// full client-slot rectangle.
	if len(rects) != 2 {
		t.Fatalf("frame shape rects = %v, want the client's two diamond rects", rects)
	}
	// Hit-testing: a frame corner outside the diamond is click-through.
	rx, ry, _, _ := wm.conn.TranslateCoordinates(c.frame.Window, wm.screens[0].Root, 1, 1)
	if got := wm.conn.WindowAt(0, rx, ry); got == c.frame.Window || got == app.Win {
		t.Error("corner outside the shape still hits the shaped frame")
	}
}

// TestPannerMiniAtPicksTopmost checks that a press over overlapping
// miniatures picks the one on top of the panner's stacking order,
// every time, and follows a restack.
func TestPannerMiniAtPicksTopmost(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true, EnablePanner: true})
	p := wm.screens[0].Panner()
	for _, inst := range []string{"a", "b"} {
		launch(t, s, wm, clients.Config{Instance: inst, Class: "A", Width: 400, Height: 300,
			NormalHints: &icccm.NormalHints{Flags: icccm.USPosition, X: 100, Y: 100}})
	}
	minis := p.Miniatures()
	if len(minis) != 2 {
		t.Fatalf("%d miniatures, want 2", len(minis))
	}
	topmost := func() *Client {
		t.Helper()
		_, _, kids, err := wm.conn.QueryTree(p.Window())
		if err != nil {
			t.Fatal(err)
		}
		for i := len(kids) - 1; i >= 0; i-- {
			if c, ok := minis[kids[i]]; ok {
				return c
			}
		}
		t.Fatal("no miniature among the panner's children")
		return nil
	}
	name := func(c *Client) string {
		if c == nil {
			return "none"
		}
		return c.Class.Instance
	}
	upper := topmost()
	g, err := wm.conn.GetGeometry(p.miniOf[upper].win)
	if err != nil {
		t.Fatal(err)
	}
	x, y := g.Rect.X+1, g.Rect.Y+1
	for i := 0; i < 200; i++ {
		if c := p.miniAt(x, y); c != upper {
			t.Fatalf("call %d: miniAt picked %s, want the upper %s", i, name(c), name(upper))
		}
	}
	for mini, c := range minis {
		if c != upper {
			if err := wm.conn.RaiseWindow(mini); err != nil {
				t.Fatal(err)
			}
		}
	}
	lower := topmost()
	if lower == upper {
		t.Fatal("raise did not change the topmost miniature")
	}
	for i := 0; i < 200; i++ {
		if c := p.miniAt(x, y); c != lower {
			t.Fatalf("after the raise, call %d: miniAt picked %s, want %s", i, name(c), name(lower))
		}
	}
}

// TestPannerMiniaturesFollowFrameStacking checks that the miniatures
// stack like their clients' frames: after a's frame is raised above
// b's, a press over the overlap picks a, and a's miniature sits above
// b's among the panner's children, with the viewport still on top. A
// deiconified client's frame keeps its place, and so must its new
// miniature.
func TestPannerMiniaturesFollowFrameStacking(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true, EnablePanner: true})
	p := wm.screens[0].Panner()
	overlapping := func(inst string) *Client {
		_, c := launch(t, s, wm, clients.Config{Instance: inst, Class: "A", Width: 400, Height: 300,
			NormalHints: &icccm.NormalHints{Flags: icccm.USPosition, X: 100, Y: 100}})
		return c
	}
	a, b := overlapping("a"), overlapping("b")
	for _, step := range []struct {
		c        *Client
		src      string
		top, low *Client // nil: b is iconified and has no miniature
	}{
		{a, "f.raise", a, b},
		{b, "f.raise", b, a},
		{a, "f.raise", a, b},
		{a, "f.lower", b, a},
		{b, "f.lower", a, b},
		{b, "f.iconify", nil, nil},
		{b, "f.deiconify", a, b},
	} {
		if err := wm.ExecuteString(&FuncContext{Client: step.c, Screen: step.c.scr}, step.src); err != nil {
			t.Fatal(err)
		}
		wm.Pump()
		if step.top == nil {
			continue
		}
		name := step.c.Class.Instance + " " + step.src
		g, err := wm.conn.GetGeometry(p.miniOf[step.top].win)
		if err != nil {
			t.Fatal(err)
		}
		if c := p.miniAt(g.Rect.X+1, g.Rect.Y+1); c != step.top {
			t.Errorf("after %s: miniAt over the overlap did not pick %s", name, step.top.Class.Instance)
		}
		_, _, kids, err := wm.conn.QueryTree(p.Window())
		if err != nil {
			t.Fatal(err)
		}
		pos := make(map[xproto.XID]int, len(kids))
		for i, k := range kids {
			pos[k] = i
		}
		if pos[p.miniOf[step.top].win] < pos[p.miniOf[step.low].win] {
			t.Errorf("after %s: %s's miniature stacks below %s's: children %v", name, step.top.Class.Instance, step.low.Class.Instance, kids)
		}
		if kids[len(kids)-1] != p.viewport {
			t.Errorf("after %s: the viewport is not on top: children %v", name, kids)
		}
	}
}
