package core

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/clients"
	"repro/internal/icccm"
	"repro/internal/templates"
	"repro/internal/xproto"
	"repro/internal/xserver"
)

// --- focus ---

func TestFocusFunction(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	app, c := launch(t, s, wm, clients.Config{Instance: "xterm", Class: "XTerm", Width: 100, Height: 100})
	if err := wm.ExecuteString(&FuncContext{Client: c, Screen: c.scr}, "f.focus"); err != nil {
		t.Fatal(err)
	}
	if got := wm.conn.GetInputFocus(); got != app.Win {
		t.Errorf("focus = %v, want client %v", got, app.Win)
	}
	if wm.focus != c {
		t.Error("WM focus record not updated")
	}
}

func TestFocusResetOnClientDeath(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	app, c := launch(t, s, wm, clients.Config{Instance: "xterm", Class: "XTerm", Width: 100, Height: 100})
	if err := wm.ExecuteString(&FuncContext{Client: c, Screen: c.scr}, "f.focus"); err != nil {
		t.Fatal(err)
	}
	app.Close()
	wm.Pump()
	if wm.focus != nil {
		t.Error("stale focus record after client death")
	}
	_ = s
}

// --- circulate ---

func TestCircleUpDown(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	_, c1 := launch(t, s, wm, clients.Config{Instance: "a", Class: "A", Width: 100, Height: 100})
	_, c2 := launch(t, s, wm, clients.Config{Instance: "b", Class: "B", Width: 100, Height: 100})
	_, c3 := launch(t, s, wm, clients.Config{Instance: "d", Class: "D", Width: 100, Height: 100})
	scr := wm.screens[0]
	ctx := &FuncContext{Screen: scr}
	// Initial stacking: c1 c2 c3 (bottom to top).
	frames := wm.stackedFrames(scr)
	if frames[0] != c1.frame.Window {
		t.Fatalf("unexpected initial stacking")
	}
	if err := wm.ExecuteString(ctx, "f.circleup"); err != nil {
		t.Fatal(err)
	}
	frames = wm.stackedFrames(scr)
	if frames[len(frames)-1] != c1.frame.Window {
		t.Errorf("circleup did not raise the bottom window")
	}
	if err := wm.ExecuteString(ctx, "f.circledown"); err != nil {
		t.Fatal(err)
	}
	frames = wm.stackedFrames(scr)
	if frames[0] != c1.frame.Window {
		t.Errorf("circledown did not lower the top window")
	}
	_ = c2
	_ = c3
}

// --- root menu via Btn3 (the OpenLook template's root binding) ---

func TestRootButtonBindingPopsMenu(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	scr := wm.screens[0]
	s.FakeMotion(600, 400)
	s.FakeButtonPress(xproto.Button3, 0)
	wm.Pump()
	menus := scr.OpenMenus()
	if len(menus) != 1 {
		t.Fatalf("%d menus after root Btn3, want 1 (windowMenu)", len(menus))
	}
	s.FakeButtonRelease(xproto.Button3, 0)
	wm.Pump()
	// Release over a menu item dismisses; release over nothing leaves it
	// (our model dismisses only on item release). Either way the menu
	// machinery responded; dismiss explicitly for cleanliness.
	wm.dismissMenus(scr)
	if len(scr.OpenMenus()) != 0 {
		t.Error("menu not dismissed")
	}
}

func TestMenuReplacesPreviousMenu(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	scr := wm.screens[0]
	if err := wm.PopupMenu(scr, "windowMenu", nil); err != nil {
		t.Fatal(err)
	}
	if err := wm.PopupMenu(scr, "windowMenu", nil); err != nil {
		t.Fatal(err)
	}
	if len(scr.OpenMenus()) != 1 {
		t.Errorf("%d menus open, want 1 (popping a menu dismisses the old)", len(scr.OpenMenus()))
	}
	_ = s
}

func TestMenuUnknownPanel(t *testing.T) {
	_, wm := newWM(t, Options{})
	if err := wm.PopupMenu(wm.screens[0], "noSuchMenu", nil); err == nil {
		t.Error("unknown menu panel accepted")
	}
}

// --- adopting pre-existing windows ---

func TestAdoptExistingWindows(t *testing.T) {
	s := xserver.NewServer()
	// Client maps BEFORE any WM exists.
	app, err := clients.Launch(s, clients.Config{Instance: "xterm", Class: "XTerm", Width: 200, Height: 150})
	if err != nil {
		t.Fatal(err)
	}
	attrs, _ := app.Conn.GetWindowAttributes(app.Win)
	if attrs.MapState != xproto.IsViewable {
		t.Fatal("client should be mapped pre-WM")
	}
	db, _ := templates.Load(templates.OpenLook)
	wm, err := New(s, Options{DB: db, VirtualDesktop: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wm.ClientOf(app.Win); !ok {
		t.Error("pre-existing window not adopted")
	}
	// Still viewable after adoption.
	attrs, _ = app.Conn.GetWindowAttributes(app.Win)
	if attrs.MapState != xproto.IsViewable {
		t.Error("adopted window lost visibility")
	}
}

func TestAdoptSkipsOverrideRedirect(t *testing.T) {
	s := xserver.NewServer()
	conn := s.Connect("popup-owner")
	win, err := conn.CreateWindow(s.Screens()[0].Root, xproto.Rect{Width: 50, Height: 50}, 0,
		xserver.WindowAttributes{OverrideRedirect: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.MapWindow(win); err != nil {
		t.Fatal(err)
	}
	db, _ := templates.Load(templates.OpenLook)
	wm, err := New(s, Options{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wm.ClientOf(win); ok {
		t.Error("override-redirect window adopted")
	}
}

// --- prompt mode cancellation ---

func TestPromptCancelledByNonClientClick(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	_, c := launch(t, s, wm, clients.Config{Instance: "a", Class: "A", Width: 100, Height: 100,
		NormalHints: &icccm.NormalHints{Flags: icccm.PPosition, X: 100, Y: 100}})
	if err := wm.ExecuteString(&FuncContext{Screen: wm.screens[0]}, "f.iconify(multiple)"); err != nil {
		t.Fatal(err)
	}
	if wm.prompt == nil {
		t.Fatal("prompt not armed")
	}
	// Click on the bare desktop, far from any client.
	s.FakeMotion(1000, 800)
	s.FakeButtonPress(xproto.Button1, 0)
	s.FakeButtonRelease(xproto.Button1, 0)
	wm.Pump()
	if wm.prompt != nil {
		t.Error("prompt not cancelled by a non-client click")
	}
	if c.State == xproto.IconicState {
		t.Error("cancelled prompt still fired")
	}
}

// --- the Motif emulation template end to end ---

func TestMotifTemplateEndToEnd(t *testing.T) {
	db, err := templates.Load(templates.Motif)
	if err != nil {
		t.Fatal(err)
	}
	s, wm := newWM(t, Options{DB: db, VirtualDesktop: true})
	_, c := launch(t, s, wm, clients.Config{Instance: "xterm", Class: "XTerm", Name: "sh", Width: 300, Height: 200})
	if c.decoration != "motif" {
		t.Fatalf("decoration = %q", c.decoration)
	}
	// The Motif minimize button iconifies.
	mini := c.frame.Find("minimize")
	if mini == nil {
		t.Fatal("no minimize button")
	}
	rx, ry, _, _ := wm.conn.TranslateCoordinates(mini.Window, wm.screens[0].Root, 2, 2)
	s.FakeMotion(rx, ry)
	s.FakeButtonPress(xproto.Button1, 0)
	s.FakeButtonRelease(xproto.Button1, 0)
	wm.Pump()
	if c.State != xproto.IconicState {
		t.Error("Motif minimize button did not iconify")
	}
	// Title shows WM_NAME via the name object.
	if got := c.frame.Find("name").Label(); got != "sh" {
		t.Errorf("motif title = %q", got)
	}
}

// --- icon holder sizeToFit ---

func TestIconHolderSizeToFit(t *testing.T) {
	db, _ := templates.Load(templates.OpenLook)
	db.MustPut("swm*iconHolders", "box")
	db.MustPut("swm*iconHolder.box.sizeToFit", "True")
	s, wm := newWM(t, Options{DB: db, VirtualDesktop: true})
	holder := wm.screens[0].IconHolders()[0]
	w0 := holder.rect.Width
	var cs []*Client
	for i := 0; i < 3; i++ {
		_, c := launch(t, s, wm, clients.Config{
			Instance: "xterm", Class: "XTerm", Width: 100, Height: 100,
		})
		cs = append(cs, c)
	}
	for _, c := range cs {
		if err := wm.Iconify(c); err != nil {
			t.Fatal(err)
		}
	}
	g, _ := wm.conn.GetGeometry(holder.Window())
	if g.Rect.Width <= w0/2 && g.Rect.Height <= 20 {
		t.Errorf("holder did not grow to fit: %v", g.Rect)
	}
	// Icons are placed in a row inside.
	icons := holder.Icons()
	if len(icons) != 3 {
		t.Fatalf("%d held icons", len(icons))
	}
	x := -1
	for _, c := range icons {
		gi, _ := wm.conn.GetGeometry(c.icon.Window())
		if gi.Rect.X <= x {
			t.Errorf("icons not flowing left to right")
		}
		x = gi.Rect.X
	}
}

// --- panner drag released outside the panner (full-size outline move) ---

func TestPannerDragReleaseOutsidePanner(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true, EnablePanner: true})
	scr := wm.screens[0]
	_, c := launch(t, s, wm, clients.Config{Instance: "a", Class: "A", Width: 300, Height: 200,
		NormalHints: &icccm.NormalHints{Flags: icccm.USPosition, X: 500, Y: 400}})
	p := scr.Panner()
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
	// Drag the pointer OUT of the panner and release at screen (100, 120):
	// "a full size outline of the window is displayed, allowing the user
	// to move and fine tune the placement on the current visible portion"
	s.FakeMotion(100, 120)
	s.FakeButtonRelease(xproto.Button2, 0)
	wm.Pump()
	wantX, wantY := scr.PanX+100, scr.PanY+120
	if c.FrameRect.X != wantX || c.FrameRect.Y != wantY {
		t.Errorf("frame at (%d,%d), want (%d,%d)", c.FrameRect.X, c.FrameRect.Y, wantX, wantY)
	}
}

// --- multi-screen stickiness and desktops ---

func TestMultiScreenDesktopsIndependent(t *testing.T) {
	s := xserver.NewServer(
		xserver.ScreenSpec{Width: 1152, Height: 900},
		xserver.ScreenSpec{Width: 1024, Height: 768},
	)
	db, _ := templates.Load(templates.OpenLook)
	wm, err := New(s, Options{DB: db, VirtualDesktop: true})
	if err != nil {
		t.Fatal(err)
	}
	scr0, scr1 := wm.Screens()[0], wm.Screens()[1]
	if err := wm.SelectDesktop(scr0, 1); err != nil {
		t.Fatal(err)
	}
	if scr1.CurrentDesktop() != 0 {
		t.Error("desktop switch leaked across screens")
	}
	if scr0.DesktopW != 1152*4 || scr1.DesktopW != 1024*4 {
		t.Errorf("desktop sizes %d %d", scr0.DesktopW, scr1.DesktopW)
	}
}

// --- error paths ---

func TestFunctionsWithoutContextPrompt(t *testing.T) {
	// Window-targeting functions invoked with no context window arm a
	// one-shot prompt (the swmcmd behavior of §5) rather than failing.
	_, wm := newWM(t, Options{VirtualDesktop: true})
	ctx := &FuncContext{Screen: wm.screens[0]} // no client
	for _, fn := range []string{"f.raise", "f.iconify", "f.move", "f.zoom", "f.stick", "f.delete"} {
		wm.prompt = nil
		if err := wm.ExecuteString(ctx, fn); err != nil {
			t.Errorf("%s: %v", fn, err)
		}
		if wm.prompt == nil || !wm.prompt.oneShot {
			t.Errorf("%s did not arm a one-shot prompt", fn)
		}
	}
	wm.prompt = nil
}

func TestNumericFunctionsValidateArgs(t *testing.T) {
	_, wm := newWM(t, Options{VirtualDesktop: true})
	ctx := &FuncContext{Screen: wm.screens[0]}
	bad := []string{
		"f.warpvertical",        // missing arg
		"f.warpvertical(abc)",   // non-numeric
		"f.pangoto",             // missing arg
		"f.pangoto(12)",         // missing y
		"f.pangoto(a,b)",        // non-numeric
		"f.setlabel",            // missing arg
		"f.setlabel(noequals)",  // bad form
		"f.setbindings(x=junk)", // unparsable bindings
		"f.resize(0x0)",         // zero size; no client anyway
	}
	for _, src := range bad {
		if err := wm.ExecuteString(ctx, src); err == nil {
			t.Errorf("%s accepted", src)
		}
	}
}

func TestWindowIDTargetUnmanaged(t *testing.T) {
	_, wm := newWM(t, Options{VirtualDesktop: true})
	if err := wm.ExecuteString(&FuncContext{Screen: wm.screens[0]}, "f.raise(#0xdeadbeef)"); err == nil {
		t.Error("unmanaged window id accepted")
	}
}

// --- invariants under random operation sequences ---

// wmInvariants checks the structural invariants that must hold after
// ANY sequence of window manager operations.
func wmInvariants(t *testing.T, wm *WM, c *Client) {
	t.Helper()
	// The client window's parent is its slot window.
	_, parent, _, err := wm.conn.QueryTree(c.Win)
	if err != nil {
		t.Fatalf("client window vanished: %v", err)
	}
	if parent != c.clientSlot.Window {
		t.Fatalf("client parent = %v, want slot %v", parent, c.clientSlot.Window)
	}
	// The frame's parent matches stickiness.
	_, fparent, _, err := wm.conn.QueryTree(c.frame.Window)
	if err != nil {
		t.Fatalf("frame vanished: %v", err)
	}
	if c.Sticky && fparent != c.scr.Root {
		t.Fatalf("sticky frame not on root")
	}
	if !c.Sticky && fparent == c.scr.Root && c.scr.Desktop != xproto.None {
		t.Fatalf("non-sticky frame on the root")
	}
	// WM_STATE agrees with the in-memory state.
	st, ok, _ := icccm.GetState(wm.conn, c.Win)
	if !ok || st.State != c.State {
		t.Fatalf("WM_STATE %v != state %d", st, c.State)
	}
	// Iconic -> frame unmapped, icon mapped; Normal -> frame mapped.
	fattrs, _ := wm.conn.GetWindowAttributes(c.frame.Window)
	if c.State == xproto.IconicState {
		if fattrs.MapState != xproto.IsUnmapped {
			t.Fatalf("iconic client's frame mapped")
		}
	} else if fattrs.MapState == xproto.IsUnmapped {
		t.Fatalf("normal client's frame unmapped")
	}
	// SWM_ROOT names the frame's actual parent.
	if got, ok := SwmRoot(wm.conn, c.Win); ok && got != fparent {
		t.Fatalf("SWM_ROOT %v != frame parent %v", got, fparent)
	}
}

func TestInvariantsUnderRandomOperations(t *testing.T) {
	f := func(ops []uint8) bool {
		if len(ops) > 24 {
			ops = ops[:24]
		}
		s, wm := newWM(t, Options{VirtualDesktop: true, EnablePanner: true})
		_, c := launch(t, s, wm, clients.Config{Instance: "xterm", Class: "XTerm",
			Width: 200, Height: 150, Command: []string{"xterm"}})
		scr := wm.screens[0]
		ctx := &FuncContext{Client: c, Screen: scr}
		for _, op := range ops {
			switch op % 10 {
			case 0:
				_ = wm.Iconify(c)
			case 1:
				_ = wm.Deiconify(c)
			case 2:
				_ = wm.Stick(c)
			case 3:
				_ = wm.Unstick(c)
			case 4:
				wm.PanBy(scr, int(op)*7, int(op)*3)
			case 5:
				wm.MoveClientTo(c, int(op)*11, int(op)*5)
			case 6:
				wm.resizeClient(c, 100+int(op), 80+int(op))
			case 7:
				_ = wm.ExecuteString(ctx, "f.save f.zoom")
			case 8:
				_ = wm.ExecuteString(ctx, "f.restore")
			case 9:
				_ = wm.SelectDesktop(scr, int(op)%3)
			}
			wm.Pump()
			wmInvariants(t, wm, c)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// --- f.places excludes internal clients ---

func TestPlacesExcludesFurniture(t *testing.T) {
	db, _ := templates.Load(templates.OpenLook)
	db.MustPut("swm*rootPanels", "RootPanel")
	db.MustPut("Swm*panel.RootPanel", "button quit +0+0")
	s, wm := newWM(t, Options{DB: db, VirtualDesktop: true, EnablePanner: true})
	launch(t, s, wm, clients.Config{Instance: "xterm", Class: "XTerm", Width: 100, Height: 100,
		Command: []string{"xterm"}})
	if err := wm.ExecuteString(&FuncContext{Screen: wm.screens[0]}, "f.places"); err != nil {
		t.Fatal(err)
	}
	out := wm.LastPlaces()
	for _, forbidden := range []string{"panner", "RootPanel"} {
		if containsStr(out, forbidden) {
			t.Errorf("places file leaks WM furniture %q:\n%s", forbidden, out)
		}
	}
	if !containsStr(out, "xterm") {
		t.Errorf("places file missing the real client:\n%s", out)
	}
}

func containsStr(haystack, needle string) bool {
	return len(haystack) >= len(needle) && indexStr(haystack, needle) >= 0
}

func indexStr(haystack, needle string) int {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if haystack[i:i+len(needle)] == needle {
			return i
		}
	}
	return -1
}

// TestFunctionNamesMatchTable checks that FunctionNames, which
// swmcmd -list prints, is exactly the function table's keys, sorted.
func TestFunctionNamesMatchTable(t *testing.T) {
	names := FunctionNames()
	if len(names) != len(funcs) || !sort.StringsAreSorted(names) {
		t.Fatalf("FunctionNames() = %v: want the %d table keys, sorted", names, len(funcs))
	}
	for i, name := range names {
		if _, ok := funcs[name]; !ok || (i > 0 && names[i-1] == name) {
			t.Errorf("FunctionNames()[%d] = %q: not a table key, or repeated", i, name)
		}
	}
}
