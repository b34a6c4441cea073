package core

import (
	"strings"
	"testing"

	"repro/internal/clients"
	"repro/internal/icccm"
	"repro/internal/xproto"
	"repro/internal/xserver"
)

// Manage reads the client's ICCCM properties one GetProperty each, in
// the order WM_NAME, WM_ICON_NAME, WM_CLASS, WM_COMMAND,
// WM_CLIENT_MACHINE, WM_HINTS, WM_NORMAL_HINTS, WM_TRANSIENT_FOR. A
// failure of one read is confined to that property: it is logged and
// counted once, the property is treated as absent, and every other
// property still applies.
func TestManagePropReadFailureIsConfined(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	scr := wm.screens[0]
	wm.PanTo(scr, 1000, 1000) // PPosition is viewport-relative
	wm.Pump()
	app, err := clients.Launch(s, clients.Config{
		Instance: "xedit", Class: "XEdit", Name: "editor", Width: 100, Height: 100,
		NormalHints: &icccm.NormalHints{Flags: icccm.PPosition, X: 100, Y: 100},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The MapRequest is queued; the first GetProperty requests of the
	// pump are Manage's, so EveryN=3 with Times=1 fails exactly the
	// third one, WM_CLASS, and nothing else.
	wm.Conn().SetFaultPolicy(&xserver.FaultPolicy{Seed: 23, Ops: []xproto.Major{xproto.MajorGetProperty}, EveryN: 3, Times: 1})
	degraded := wm.Degraded()
	wm.Pump()
	fired := wm.Conn().FaultCount()
	wm.Conn().SetFaultPolicy(nil)
	if fired != 1 {
		t.Fatalf("injected faults = %d, want 1", fired)
	}

	c, ok := wm.ClientOf(app.Win)
	if !ok {
		t.Fatal("client not managed after its WM_CLASS read failed")
	}
	if c.Class != (icccm.Class{}) {
		t.Errorf("Class = %+v, want absent after the failed read", c.Class)
	}
	if c.Name != "editor" {
		t.Errorf("Name = %q, want editor despite the WM_CLASS failure", c.Name)
	}
	x, y, _, err := wm.conn.TranslateCoordinates(app.Win, scr.Desktop, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if x != 1100 || y != 1100 {
		t.Errorf("client at desktop (%d,%d), want PPosition placement (1100,1100)", x, y)
	}
	if got := wm.Degraded(); got != degraded+1 {
		t.Errorf("Degraded() = %d, want %d: one note for the failed read", got, degraded+1)
	}
	if err := wm.LastError(); err == nil || !strings.Contains(err.Error(), "read WM_CLASS") {
		t.Errorf("LastError() = %v, want the failed WM_CLASS read", err)
	}
}

// A WM_TRANSIENT_FOR that cannot decode (two bytes, not a 32-bit
// window) is managed as an ordinary, non-transient client, and the
// decode error is logged and counted under the property's name.
func TestManageMalformedTransientFor(t *testing.T) {
	var log strings.Builder
	s, wm := newWM(t, Options{VirtualDesktop: true, Log: &log})
	app, err := clients.Launch(s, clients.Config{Instance: "xedit", Class: "XEdit", Name: "editor", Width: 100, Height: 100})
	if err != nil {
		t.Fatal(err)
	}
	// The MapRequest is not handled yet, so Manage reads this value.
	if err := app.Conn.ChangeProperty(app.Win, app.Conn.InternAtom("WM_TRANSIENT_FOR"),
		app.Conn.InternAtom("WINDOW"), 8, xproto.PropModeReplace, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	degraded := wm.Degraded()
	wm.Pump()

	c, ok := wm.ClientOf(app.Win)
	if !ok {
		t.Fatal("client with a malformed WM_TRANSIENT_FOR not managed")
	}
	if c.Transient != xproto.None {
		t.Errorf("Transient = 0x%x, want None", uint32(c.Transient))
	}
	if c.Name != "editor" {
		t.Errorf("Name = %q, want editor despite the decode failure", c.Name)
	}
	if got := wm.Degraded(); got != degraded+1 {
		t.Errorf("Degraded() = %d, want %d: one note for the decode error", got, degraded+1)
	}
	if !strings.Contains(log.String(), "read WM_TRANSIENT_FOR: icccm: WM_TRANSIENT_FOR too short") {
		t.Errorf("decode error not logged; log:\n%s", log.String())
	}
}

// A window with no ICCCM properties at all is managed with every
// property absent, and absence is not an error.
func TestManageBareWindow(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	conn := s.Connect("bare")
	win, err := conn.CreateWindow(wm.screens[0].Root, xproto.Rect{Width: 50, Height: 50}, 0, xserver.WindowAttributes{})
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.MapWindow(win); err != nil {
		t.Fatal(err)
	}
	degraded := wm.Degraded()
	wm.Pump()

	c, ok := wm.ClientOf(win)
	if !ok {
		t.Fatal("bare window not managed")
	}
	if c.Name != "" || c.IconName != "" || c.Class != (icccm.Class{}) ||
		c.Command != nil || c.Machine != "" || c.Transient != xproto.None {
		t.Errorf("bare window managed with properties: name %q icon %q class %+v command %q machine %q transient 0x%x",
			c.Name, c.IconName, c.Class, c.Command, c.Machine, uint32(c.Transient))
	}
	if got := wm.Degraded(); got != degraded {
		t.Errorf("Degraded() = %d, want %d: absent properties are not failures", got, degraded)
	}
}
