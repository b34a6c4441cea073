package core

import (
	"strings"
	"testing"

	"repro/internal/clients"
	"repro/internal/session"
	"repro/internal/templates"
	"repro/internal/xproto"
	"repro/internal/xserver"
)

// writeHints simulates swmhints invocations: append records to the
// SWM_HINTS property on the root (paper §7: "All of the information
// given to the swmhints program is appended to a property on the root
// window").
func writeHints(t *testing.T, s *xserver.Server, hints ...session.Hint) {
	t.Helper()
	conn := s.Connect("swmhints")
	defer conn.Close()
	root := s.Screens()[0].Root
	var sb strings.Builder
	for _, h := range hints {
		sb.WriteString(session.Encode(h))
		sb.WriteByte('\n')
	}
	err := conn.ChangeProperty(root, conn.InternAtom("SWM_HINTS"),
		conn.InternAtom("STRING"), 8, xproto.PropModeAppend, []byte(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
}

func TestSessionRestoreGeometry(t *testing.T) {
	s := xserver.NewServer()
	// swmhints runs from .xinitrc BEFORE swm starts.
	writeHints(t, s, session.Hint{
		Geometry: "120x120+1010+359",
		State:    "NormalState",
		Cmd:      "oclock -geom 100x100 ",
	})
	db, _ := templates.Load(templates.OpenLook)
	wm, err := New(s, Options{DB: db, VirtualDesktop: true})
	if err != nil {
		t.Fatal(err)
	}
	wm.Pump()
	// The client starts with its original 100x100 geometry; swm must
	// restore the saved 120x120 at (1010, 359).
	app, err := clients.Launch(s, clients.Config{
		Instance: "oclock", Class: "Clock", Width: 100, Height: 100,
		Command: []string{"oclock", "-geom", "100x100"},
	})
	if err != nil {
		t.Fatal(err)
	}
	wm.Pump()
	c, ok := wm.ClientOf(app.Win)
	if !ok {
		t.Fatal("oclock not managed")
	}
	g, _ := app.Conn.GetGeometry(app.Win)
	if g.Rect.Width != 120 || g.Rect.Height != 120 {
		t.Errorf("restored size %dx%d, want 120x120", g.Rect.Width, g.Rect.Height)
	}
	x, y, _, _ := app.Conn.TranslateCoordinates(app.Win, wm.screens[0].Desktop, 0, 0)
	if x != 1010 || y != 359 {
		t.Errorf("restored position (%d,%d), want (1010,359)", x, y)
	}
	_ = c
}

func TestSessionRestoreIconicAndIconPosition(t *testing.T) {
	s := xserver.NewServer()
	writeHints(t, s, session.Hint{
		Geometry:     "200x100+300+300",
		IconGeometry: "+0+0",
		State:        "IconicState",
		Cmd:          "xterm ",
	})
	db, _ := templates.Load(templates.OpenLook)
	wm, err := New(s, Options{DB: db, VirtualDesktop: true})
	if err != nil {
		t.Fatal(err)
	}
	app, err := clients.Launch(s, clients.Config{
		Instance: "xterm", Class: "XTerm", Width: 200, Height: 100,
		Command: []string{"xterm"},
	})
	if err != nil {
		t.Fatal(err)
	}
	wm.Pump()
	c, _ := wm.ClientOf(app.Win)
	if c.State != xproto.IconicState {
		t.Error("client not restored iconic")
	}
	g, _ := wm.conn.GetGeometry(c.icon.Window())
	if g.Rect.X != 0 || g.Rect.Y != 0 {
		t.Errorf("icon at (%d,%d), want (0,0)", g.Rect.X, g.Rect.Y)
	}
}

func TestSessionRestoreSticky(t *testing.T) {
	s := xserver.NewServer()
	writeHints(t, s, session.Hint{
		Geometry: "120x120+50+50", State: "NormalState", Sticky: true,
		Cmd: "xclock ",
	})
	db, _ := templates.Load(templates.OpenLook)
	wm, err := New(s, Options{DB: db, VirtualDesktop: true})
	if err != nil {
		t.Fatal(err)
	}
	app, err := clients.Launch(s, clients.Config{
		Instance: "xclock", Class: "XClock", Width: 120, Height: 120,
		Command: []string{"xclock"},
	})
	if err != nil {
		t.Fatal(err)
	}
	wm.Pump()
	c, _ := wm.ClientOf(app.Win)
	if !c.Sticky {
		t.Error("sticky state not restored")
	}
}

func TestSessionMachineDisambiguates(t *testing.T) {
	// Two xloads, one local and one remote, with distinct saved
	// positions: WM_CLIENT_MACHINE must route each to its own hint.
	s := xserver.NewServer()
	writeHints(t, s,
		session.Hint{Geometry: "60x60+100+100", State: "NormalState", Cmd: "xload ", Machine: "hosta"},
		session.Hint{Geometry: "60x60+700+700", State: "NormalState", Cmd: "xload ", Machine: "hostb"},
	)
	db, _ := templates.Load(templates.OpenLook)
	wm, err := New(s, Options{DB: db, VirtualDesktop: true})
	if err != nil {
		t.Fatal(err)
	}
	appB, err := clients.Launch(s, clients.Config{
		Instance: "xload", Class: "XLoad", Width: 60, Height: 60,
		Command: []string{"xload"}, Machine: "hostb",
	})
	if err != nil {
		t.Fatal(err)
	}
	wm.Pump()
	x, y, _, _ := appB.Conn.TranslateCoordinates(appB.Win, wm.screens[0].Desktop, 0, 0)
	if x != 700 || y != 700 {
		t.Errorf("hostb xload at (%d,%d), want (700,700)", x, y)
	}
}

func TestSessionDuplicateCommandsRestoreInOrder(t *testing.T) {
	// §7: identical WM_COMMANDs cannot be distinguished; entries are
	// consumed in order.
	s := xserver.NewServer()
	writeHints(t, s,
		session.Hint{Geometry: "80x24+10+10", State: "NormalState", Cmd: "xterm "},
		session.Hint{Geometry: "80x24+500+500", State: "NormalState", Cmd: "xterm "},
	)
	db, _ := templates.Load(templates.OpenLook)
	wm, err := New(s, Options{DB: db, VirtualDesktop: true})
	if err != nil {
		t.Fatal(err)
	}
	app1, _ := clients.Launch(s, clients.Config{Instance: "xterm", Class: "XTerm",
		Width: 80, Height: 24, Command: []string{"xterm"}})
	wm.Pump()
	app2, _ := clients.Launch(s, clients.Config{Instance: "xterm", Class: "XTerm",
		Width: 80, Height: 24, Command: []string{"xterm"}})
	wm.Pump()
	x1, y1, _, _ := app1.Conn.TranslateCoordinates(app1.Win, wm.screens[0].Desktop, 0, 0)
	x2, y2, _, _ := app2.Conn.TranslateCoordinates(app2.Win, wm.screens[0].Desktop, 0, 0)
	if x1 != 10 || y1 != 10 {
		t.Errorf("first xterm at (%d,%d), want (10,10)", x1, y1)
	}
	if x2 != 500 || y2 != 500 {
		t.Errorf("second xterm at (%d,%d), want (500,500)", x2, y2)
	}
}

func TestUnmatchedClientUsesNormalPlacement(t *testing.T) {
	s := xserver.NewServer()
	writeHints(t, s, session.Hint{Geometry: "80x24+10+10", Cmd: "xterm ", State: "NormalState"})
	db, _ := templates.Load(templates.OpenLook)
	wm, err := New(s, Options{DB: db, VirtualDesktop: true})
	if err != nil {
		t.Fatal(err)
	}
	// Different command: no hint applies.
	app, _ := clients.Launch(s, clients.Config{Instance: "xedit", Class: "XEdit",
		Width: 300, Height: 300, Command: []string{"xedit", "notes"}})
	wm.Pump()
	x, _, _, _ := app.Conn.TranslateCoordinates(app.Win, wm.screens[0].Desktop, 0, 0)
	if x == 10 {
		t.Error("unmatched client stole another command's hint")
	}
	if wm.hintTable.Len() != 1 {
		t.Errorf("hint table len = %d, want the unconsumed entry", wm.hintTable.Len())
	}
}

// TestPlacesFileOclockExample regenerates the paper's §7 example file
// end-to-end: launch oclock with -geom 100x100, resize it to 120x120,
// move it to (1010, 359), run f.places, and check the two output lines.
func TestPlacesFileOclockExample(t *testing.T) {
	s := xserver.NewServer()
	db, _ := templates.Load(templates.OpenLook)
	wm, err := New(s, Options{DB: db, VirtualDesktop: true})
	if err != nil {
		t.Fatal(err)
	}
	app, err := clients.Launch(s, clients.Config{
		Instance: "oclock", Class: "Clock", Width: 100, Height: 100,
		Command: []string{"oclock", "-geom", "100x100"},
	})
	if err != nil {
		t.Fatal(err)
	}
	wm.Pump()
	c, _ := wm.ClientOf(app.Win)
	// "Sometime later it was resized to 120x120 and positioned at
	// location 1010, 359."
	wm.resizeClient(c, 120, 120)
	slotX, slotY := wm.clientSlotOffset(c)
	wm.moveFrame(c, 1010-slotX, 359-slotY)
	if err := wm.ExecuteString(&FuncContext{Screen: wm.screens[0]}, "f.places"); err != nil {
		t.Fatal(err)
	}
	out := wm.LastPlaces()
	if !strings.Contains(out, "swmhints -geometry 120x120+1010+359") {
		t.Errorf("swmhints line missing or wrong:\n%s", out)
	}
	if !strings.Contains(out, "-state NormalState") {
		t.Errorf("state missing:\n%s", out)
	}
	if !strings.Contains(out, `-cmd "oclock -geom 100x100 "`) {
		t.Errorf("WM_COMMAND string missing:\n%s", out)
	}
	if !strings.Contains(out, "oclock -geom 100x100 &") {
		t.Errorf("client invocation line missing:\n%s", out)
	}
}

// TestSessionFullCycle drives the complete loop: run session 1, lay out
// windows, f.places; "restart X" (fresh server); replay the places file
// (swmhints + client starts); verify every attribute comes back.
func TestSessionFullCycle(t *testing.T) {
	// --- Session 1 ---
	s1 := xserver.NewServer()
	db1, _ := templates.Load(templates.OpenLook)
	wm1, err := New(s1, Options{DB: db1, VirtualDesktop: true})
	if err != nil {
		t.Fatal(err)
	}
	term, _ := clients.Launch(s1, clients.Config{Instance: "xterm", Class: "XTerm",
		Width: 484, Height: 316, Command: []string{"xterm", "-T", "work"}})
	clock, _ := clients.Launch(s1, clients.Config{Instance: "xclock", Class: "XClock",
		Width: 120, Height: 120, Command: []string{"xclock"}})
	remote, _ := clients.Launch(s1, clients.Config{Instance: "xload", Class: "XLoad",
		Width: 60, Height: 60, Command: []string{"xload"}, Machine: "kandinsky"})
	wm1.Pump()
	tc, _ := wm1.ClientOf(term.Win)
	cc, _ := wm1.ClientOf(clock.Win)
	rc, _ := wm1.ClientOf(remote.Win)
	// Arrange: move the xterm, stick the clock, iconify the remote load.
	slotX, slotY := wm1.clientSlotOffset(tc)
	wm1.moveFrame(tc, 900-slotX, 450-slotY)
	if err := wm1.Stick(cc); err != nil {
		t.Fatal(err)
	}
	if err := wm1.Iconify(rc); err != nil {
		t.Fatal(err)
	}
	wm1.MoveIcon(rc, 33, 44)
	if err := wm1.ExecuteString(&FuncContext{Screen: wm1.screens[0]}, "f.places"); err != nil {
		t.Fatal(err)
	}
	placesFile := wm1.LastPlaces()

	// --- X restarts: fresh server; .xinitrc (the places file) runs ---
	s2 := xserver.NewServer()
	hints, err := session.ParsePlaces(placesFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(hints) != 3 {
		t.Fatalf("places file has %d records, want 3:\n%s", len(hints), placesFile)
	}
	writeHints(t, s2, hints...)
	db2, _ := templates.Load(templates.OpenLook)
	wm2, err := New(s2, Options{DB: db2, VirtualDesktop: true})
	if err != nil {
		t.Fatal(err)
	}
	// The clients restart (the places file invokes them; we simulate).
	term2, _ := clients.Launch(s2, clients.Config{Instance: "xterm", Class: "XTerm",
		Width: 484, Height: 316, Command: []string{"xterm", "-T", "work"}})
	clock2, _ := clients.Launch(s2, clients.Config{Instance: "xclock", Class: "XClock",
		Width: 120, Height: 120, Command: []string{"xclock"}})
	remote2, _ := clients.Launch(s2, clients.Config{Instance: "xload", Class: "XLoad",
		Width: 60, Height: 60, Command: []string{"xload"}, Machine: "kandinsky"})
	wm2.Pump()

	tc2, _ := wm2.ClientOf(term2.Win)
	cc2, _ := wm2.ClientOf(clock2.Win)
	rc2, _ := wm2.ClientOf(remote2.Win)
	// xterm: position restored.
	x, y, _, _ := term2.Conn.TranslateCoordinates(term2.Win, wm2.screens[0].Desktop, 0, 0)
	if x != 900 || y != 450 {
		t.Errorf("xterm restored at (%d,%d), want (900,450)", x, y)
	}
	// xclock: sticky restored.
	if !cc2.Sticky {
		t.Error("xclock stickiness lost across sessions")
	}
	// xload: iconic state and icon position restored.
	if rc2.State != xproto.IconicState {
		t.Error("xload iconic state lost")
	}
	g, _ := wm2.conn.GetGeometry(rc2.icon.Window())
	if g.Rect.X != 33 || g.Rect.Y != 44 {
		t.Errorf("xload icon at (%d,%d), want (33,44)", g.Rect.X, g.Rect.Y)
	}
	// The remote machine is preserved in the places file.
	if !strings.Contains(placesFile, `rsh kandinsky "xload"`) {
		t.Errorf("remote restart line missing:\n%s", placesFile)
	}
	_ = tc2
}

// Session hints written while swm is already running are also picked up
// (PropertyNotify on SWM_HINTS refreshes the table).
func TestSwmhintsWhileRunning(t *testing.T) {
	s := xserver.NewServer()
	db, _ := templates.Load(templates.OpenLook)
	wm, err := New(s, Options{DB: db, VirtualDesktop: true})
	if err != nil {
		t.Fatal(err)
	}
	writeHints(t, s, session.Hint{Geometry: "100x100+800+800", State: "NormalState", Cmd: "xterm "})
	wm.Pump()
	app, _ := clients.Launch(s, clients.Config{Instance: "xterm", Class: "XTerm",
		Width: 100, Height: 100, Command: []string{"xterm"}})
	wm.Pump()
	x, y, _, _ := app.Conn.TranslateCoordinates(app.Win, wm.screens[0].Desktop, 0, 0)
	if x != 800 || y != 800 {
		t.Errorf("late hint ignored: client at (%d,%d)", x, y)
	}
}

// TestHintCountersThroughMetrics restarts a WM over an SWM_HINTS table
// holding one matching record and one malformed record, with one
// adopted client that has no record, and reads the session counters
// through Metrics().
func TestHintCountersThroughMetrics(t *testing.T) {
	s := xserver.NewServer()
	for _, cfg := range []clients.Config{
		{Instance: "oclock", Class: "Clock", Width: 100, Height: 100,
			Command: []string{"oclock", "-geom", "100x100"}},
		{Instance: "xedit", Class: "XEdit", Width: 300, Height: 300,
			Command: []string{"xedit", "notes"}},
	} {
		if _, err := clients.Launch(s, cfg); err != nil {
			t.Fatal(err)
		}
	}
	writeHints(t, s, session.Hint{Geometry: "120x120+10+10", State: "NormalState", Cmd: "oclock -geom 100x100 "})
	conn := s.Connect("swmhints")
	err := conn.ChangeProperty(s.Screens()[0].Root, conn.InternAtom("SWM_HINTS"),
		conn.InternAtom("STRING"), 8, xproto.PropModeAppend, []byte("-cmd unquoted\n"))
	conn.Close()
	if err != nil {
		t.Fatal(err)
	}

	db, _ := templates.Load(templates.OpenLook)
	wm, err := New(s, Options{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	counters := wm.Metrics().Snapshot().Counters
	for name, want := range map[string]int64{
		"session.hint_hits":   1,
		"session.hint_misses": 1,
		"session.bad_records": 1,
	} {
		if got := counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}
