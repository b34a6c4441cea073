// Package clients provides simulated ICCCM X clients — the xterm,
// xclock, oclock, xeyes and friends the paper's scenarios revolve
// around. Each App owns its own server connection, sets the standard
// properties (WM_CLASS, WM_NAME, WM_COMMAND, WM_NORMAL_HINTS, ...),
// maps its window, and reacts to WM_DELETE_WINDOW. Apps track the
// root-relative position the window manager last reported to them
// (via synthetic ConfigureNotify), which is exactly the state the
// paper's Virtual-Desktop-vs-ICCCM discussion (§6.3) is about.
package clients

import (
	"fmt"

	"repro/internal/icccm"
	"repro/internal/xproto"
	"repro/internal/xserver"
)

// Config describes a simulated client application.
type Config struct {
	Instance string
	Class    string
	Name     string // WM_NAME; defaults to Instance
	IconName string // WM_ICON_NAME; defaults to Name

	Width, Height int
	X, Y          int

	Command []string // WM_COMMAND
	Machine string   // WM_CLIENT_MACHINE

	// NormalHints sets WM_NORMAL_HINTS; the Flags decide
	// USPosition/PPosition semantics.
	NormalHints *icccm.NormalHints
	// Hints sets WM_HINTS (initial state, icon position/pixmap).
	Hints *icccm.Hints
	// Protocols lists WM_PROTOCOLS entries ("WM_DELETE_WINDOW", ...).
	Protocols []string
	// Shape makes the window non-rectangular (SHAPE extension).
	Shape []xproto.Rect
	// Screen selects the screen (root) the window is created on.
	Screen int
}

// App is a running simulated client.
type App struct {
	Conn *xserver.Conn
	Win  xproto.XID
	Cfg  Config

	// BelievedRootX/Y is where the client thinks it is on the real root
	// window, from the most recent (possibly synthetic) ConfigureNotify.
	BelievedRootX int
	BelievedRootY int

	// DeleteRequested counts WM_DELETE_WINDOW messages received.
	DeleteRequested int

	// dialogs created by PopupDialog.
	dialogs []xproto.XID
}

// Launch connects a new client and maps its window.
func Launch(s *xserver.Server, cfg Config) (*App, error) {
	if cfg.Width <= 0 {
		cfg.Width = 100
	}
	if cfg.Height <= 0 {
		cfg.Height = 100
	}
	if cfg.Name == "" {
		cfg.Name = cfg.Instance
	}
	if cfg.IconName == "" {
		cfg.IconName = cfg.Name
	}
	conn := s.Connect(cfg.Instance)
	screens := s.Screens()
	if cfg.Screen < 0 || cfg.Screen >= len(screens) {
		return nil, fmt.Errorf("clients: no screen %d", cfg.Screen)
	}
	root := screens[cfg.Screen].Root
	win, err := conn.CreateWindow(root,
		xproto.Rect{X: cfg.X, Y: cfg.Y, Width: cfg.Width, Height: cfg.Height},
		1, xserver.WindowAttributes{Label: cfg.Name})
	if err != nil {
		conn.Close()
		return nil, err
	}
	app := &App{Conn: conn, Win: win, Cfg: cfg,
		BelievedRootX: cfg.X, BelievedRootY: cfg.Y}

	if cfg.Instance != "" || cfg.Class != "" {
		if err := icccm.SetClass(conn, win, icccm.Class{Instance: cfg.Instance, Class: cfg.Class}); err != nil {
			return nil, err
		}
	}
	if err := icccm.SetName(conn, win, cfg.Name); err != nil {
		return nil, err
	}
	if err := icccm.SetIconName(conn, win, cfg.IconName); err != nil {
		return nil, err
	}
	if len(cfg.Command) > 0 {
		if err := icccm.SetCommand(conn, win, cfg.Command); err != nil {
			return nil, err
		}
	}
	if cfg.Machine != "" {
		if err := icccm.SetClientMachine(conn, win, cfg.Machine); err != nil {
			return nil, err
		}
	}
	if cfg.NormalHints != nil {
		if err := icccm.SetNormalHints(conn, win, *cfg.NormalHints); err != nil {
			return nil, err
		}
	}
	if cfg.Hints != nil {
		if err := icccm.SetHints(conn, win, *cfg.Hints); err != nil {
			return nil, err
		}
	}
	if len(cfg.Protocols) > 0 {
		if err := icccm.SetProtocols(conn, win, cfg.Protocols); err != nil {
			return nil, err
		}
	}
	if len(cfg.Shape) > 0 {
		if err := conn.ShapeCombineRectangles(win, cfg.Shape); err != nil {
			return nil, err
		}
	}
	if err := conn.SelectInput(win, xproto.StructureNotifyMask); err != nil {
		return nil, err
	}
	if err := conn.MapWindow(win); err != nil {
		return nil, err
	}
	return app, nil
}

// Pump processes the client's pending events: it updates the believed
// root position from ConfigureNotify and counts WM_DELETE_WINDOW
// requests. It returns the events seen.
func (a *App) Pump() []xproto.Event {
	var evs []xproto.Event
	for {
		ev, ok := a.Conn.PollEvent()
		if !ok {
			break
		}
		switch ev.Type {
		case xproto.ConfigureNotify:
			if ev.Window == a.Win && ev.SendEvent {
				// Synthetic ConfigureNotify carries root-relative
				// coordinates (ICCCM §4.1.5).
				a.BelievedRootX, a.BelievedRootY = ev.GX, ev.GY
			}
		case xproto.ClientMessage:
			if a.Conn.AtomName(ev.MessageType) == "WM_PROTOCOLS" &&
				a.Conn.AtomName(icccm.DecodeAtom32(ev.Data)) == "WM_DELETE_WINDOW" {
				a.DeleteRequested++
			}
		}
		evs = append(evs, ev)
	}
	return evs
}

// PopupDialog simulates an OI-style toolkit popping up a dialog near
// the app window (offset dx,dy from the window's top-left corner).
//
// With useSwmRoot, the toolkit reads the SWM_ROOT property and
// "reparents, maps, and positions popup menus and dialog boxes with
// respect to the window ID specified in the property rather than always
// using the actual root window" (§6.3.1). Without it, the dialog is
// placed on the real root at the client's *believed* root position —
// which goes stale when the Virtual Desktop pans.
func (a *App) PopupDialog(dx, dy, w, h int, useSwmRoot bool) (xproto.XID, error) {
	var parent xproto.XID
	var x, y int
	if useSwmRoot {
		if swmRoot, ok := readSwmRoot(a.Conn, a.Win); ok {
			parent = swmRoot
			// Position relative to the effective root: translate the
			// window's coordinates into that root's space.
			px, py, _, err := a.Conn.TranslateCoordinates(a.Win, swmRoot, 0, 0)
			if err != nil {
				return xproto.None, err
			}
			x, y = px+dx, py+dy
		}
	}
	if parent == xproto.None {
		root, _, _, err := a.Conn.QueryTree(a.Win)
		if err != nil {
			return xproto.None, err
		}
		parent = root
		x, y = a.BelievedRootX+dx, a.BelievedRootY+dy
	}
	dlg, err := a.Conn.CreateWindow(parent, xproto.Rect{X: x, Y: y, Width: w, Height: h}, 0,
		xserver.WindowAttributes{OverrideRedirect: true, Label: a.Cfg.Name + "-dialog"})
	if err != nil {
		return xproto.None, err
	}
	if err := a.Conn.MapWindow(dlg); err != nil {
		return xproto.None, err
	}
	a.dialogs = append(a.dialogs, dlg)
	return dlg, nil
}

func readSwmRoot(conn *xserver.Conn, win xproto.XID) (xproto.XID, bool) {
	p, ok, err := conn.GetProperty(win, conn.InternAtom("SWM_ROOT"))
	if err != nil || !ok || len(p.Data) < 4 {
		return xproto.None, false
	}
	return xproto.XID(uint32(p.Data[0]) | uint32(p.Data[1])<<8 |
		uint32(p.Data[2])<<16 | uint32(p.Data[3])<<24), true
}

// Resize asks the server to resize the window (routed through the WM's
// ConfigureRequest redirection once managed).
func (a *App) Resize(w, h int) error {
	return a.Conn.ResizeWindow(a.Win, w, h)
}

// SetName updates WM_NAME (titlebars track it).
func (a *App) SetName(name string) error {
	a.Cfg.Name = name
	return icccm.SetName(a.Conn, a.Win, name)
}

// Withdraw unmaps the window (ICCCM withdrawal).
func (a *App) Withdraw() error {
	return a.Conn.UnmapWindow(a.Win)
}

// Close shuts the client's connection down (its windows are destroyed
// or rescued per save-set rules).
func (a *App) Close() {
	a.Conn.Close()
}

// --- Preset applications -----------------------------------------------------

// Xterm launches a standard terminal client.
func Xterm(s *xserver.Server, title string) (*App, error) {
	return Launch(s, Config{
		Instance: "xterm", Class: "XTerm", Name: title,
		Width: 484, Height: 316,
		Command:   []string{"xterm", "-T", title},
		Protocols: []string{"WM_DELETE_WINDOW"},
	})
}

// Xclock launches a clock (the paper's recurring sticky-window example).
func Xclock(s *xserver.Server) (*App, error) {
	return Launch(s, Config{
		Instance: "xclock", Class: "XClock", Name: "xclock",
		Width: 120, Height: 120,
		Command: []string{"xclock"},
	})
}

// Oclock launches the round clock: a shaped window (§5.1 names oclock
// as the client that "would be displayed without visible decoration"
// under the shapeit decoration). The circle is approximated by a
// diamond of rectangles.
func Oclock(s *xserver.Server) (*App, error) {
	const d = 100
	return Launch(s, Config{
		Instance: "oclock", Class: "Clock", Name: "oclock",
		Width: d, Height: d,
		Command: []string{"oclock", "-geom", fmt.Sprintf("%dx%d", d, d)},
		Shape: []xproto.Rect{
			{X: d / 4, Y: 0, Width: d / 2, Height: d},
			{X: 0, Y: d / 4, Width: d, Height: d / 2},
		},
	})
}

// Xeyes launches the googly eyes: two shaped blobs.
func Xeyes(s *xserver.Server) (*App, error) {
	return Launch(s, Config{
		Instance: "xeyes", Class: "XEyes", Name: "xeyes",
		Width: 150, Height: 100,
		Command: []string{"xeyes"},
		Shape: []xproto.Rect{
			{X: 0, Y: 10, Width: 65, Height: 80},
			{X: 85, Y: 10, Width: 65, Height: 80},
		},
	})
}

// Xbiff launches a mail notifier (a natural sticky-environment member:
// "a clock and mail notifier, which would then be visible no matter
// which portion of the Virtual Desktop is being viewed").
func Xbiff(s *xserver.Server) (*App, error) {
	return Launch(s, Config{
		Instance: "xbiff", Class: "XBiff", Name: "xbiff",
		Width: 48, Height: 48,
		Command: []string{"xbiff"},
	})
}

// EditorWithDialogs launches a multi-window editor-style app that pops
// dialogs (drives the §6.3.1 popup-placement experiments).
func EditorWithDialogs(s *xserver.Server, file string) (*App, error) {
	return Launch(s, Config{
		Instance: "xedit", Class: "XEdit", Name: "xedit: " + file,
		Width: 500, Height: 400,
		Command:   []string{"xedit", file},
		Protocols: []string{"WM_DELETE_WINDOW"},
	})
}
