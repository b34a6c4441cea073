package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/clients"
	"repro/internal/xproto"
	"repro/internal/xserver"
)

// Regression: a DestroyNotify whose Subwindow names some unrelated
// window (frame child, slot, decoration object) must not fall back to
// Window and unmanage a client that is still alive.
func TestDestroyNotifySubwindowDoesNotUnmanageWrongClient(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	app, c := launch(t, s, wm, clients.Config{
		Instance: "xterm", Class: "XTerm", Width: 300, Height: 200,
	})

	// SubstructureNotify shape: Window = parent, Subwindow = the window
	// that actually died. Here a decoration child died, but Window
	// carries the client window id — the buggy fallback would have
	// unmanaged the client.
	wm.handleEvent(xproto.Event{
		Type:      xproto.DestroyNotify,
		Window:    app.Win,
		Subwindow: c.clientSlot.Window,
	})
	if _, ok := wm.ClientOf(app.Win); !ok {
		t.Fatal("client was unmanaged by a DestroyNotify for a different window")
	}

	// The genuine SubstructureNotify form for the client's own death
	// still unmanages.
	wm.handleEvent(xproto.Event{
		Type:      xproto.DestroyNotify,
		Window:    c.clientSlot.Window,
		Subwindow: app.Win,
	})
	if _, ok := wm.ClientOf(app.Win); ok {
		t.Fatal("genuine DestroyNotify (Subwindow form) did not unmanage")
	}

	// And so does the StructureNotify form (Subwindow unset).
	app2, _ := launch(t, s, wm, clients.Config{
		Instance: "xclock", Class: "XClock", Width: 100, Height: 100,
	})
	wm.handleEvent(xproto.Event{Type: xproto.DestroyNotify, Window: app2.Win})
	if _, ok := wm.ClientOf(app2.Win); ok {
		t.Fatal("genuine DestroyNotify (Window form) did not unmanage")
	}
}

// requestLog is an xserver.Instrument that records every request.
type requestLog struct {
	majors  []xproto.Major
	targets []xproto.XID
}

func (l *requestLog) Request(major xproto.Major, target xproto.XID) {
	l.majors = append(l.majors, major)
	l.targets = append(l.targets, target)
}

// faultAfter is an xserver.Instrument that installs policy on conn
// once conn has issued skip requests of major, so the next such
// request is the first the policy can fail.
type faultAfter struct {
	conn   *xserver.Conn
	major  xproto.Major
	skip   int
	policy xserver.FaultPolicy
}

func (f *faultAfter) Request(major xproto.Major, _ xproto.XID) {
	if major != f.major || f.skip == 0 {
		return
	}
	if f.skip--; f.skip == 0 {
		f.conn.SetFaultPolicy(&f.policy)
	}
}

// Regression: a transient (non-BadWindow) failure of any manage
// request must be retried, and one that fails twice must roll back
// cleanly. Each case fails one request of the manage sequence — the
// geometry read or one of the setup requests — with BadMatch. With
// Times: 1 the retry succeeds and the client ends up decorated. With
// Times: 2 the manage fails, and the rollback leaks no window and
// reports no error beyond the injected ones.
func TestMapRequestRetriesTransientManageFailure(t *testing.T) {
	cfg := clients.Config{Instance: "xterm", Class: "XTerm", Width: 300, Height: 200}
	cases := []struct {
		major xproto.Major
		// target picks the failing request's window from a managed
		// client.
		target func(c *Client) xproto.XID
	}{
		{xproto.MajorGetGeometry, func(c *Client) xproto.XID { return c.Win }},
		{xproto.MajorChangeSaveSet, func(c *Client) xproto.XID { return c.Win }},
		// The border strip: Launch gives every client a 1px border.
		{xproto.MajorConfigureWindow, func(c *Client) xproto.XID { return c.Win }},
		{xproto.MajorReparentWindow, func(c *Client) xproto.XID { return c.Win }},
		{xproto.MajorSelectInput, func(c *Client) xproto.XID { return c.clientSlot.Window }},
		{xproto.MajorMapWindow, func(c *Client) xproto.XID { return c.Win }},
	}
	// setup starts a WM and a client whose MapRequest is queued but not
	// yet handled.
	setup := func(t *testing.T) (*xserver.Server, *WM, *clients.App) {
		s, wm := newWM(t, Options{VirtualDesktop: true})
		app, err := clients.Launch(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s, wm, app
	}
	// skipFor runs manage on a fault-free server and counts the
	// requests of major the WM makes before the one to fail.
	skipFor := func(t *testing.T, major xproto.Major, target func(*Client) xproto.XID, manage func(*WM, xproto.XID)) int {
		_, wm, app := setup(t)
		log := &requestLog{}
		wm.Conn().SetInstrument(log)
		manage(wm, app.Win)
		c, ok := wm.ClientOf(app.Win)
		if !ok {
			t.Fatal("fault-free manage failed")
		}
		skip := 0
		for i, m := range log.majors {
			if m != major {
				continue
			}
			if log.targets[i] == target(c) {
				return skip
			}
			skip++
		}
		t.Fatalf("manage issued no %s on 0x%x", major, uint32(target(c)))
		return 0
	}
	arm := func(wm *WM, major xproto.Major, skip, times int) {
		policy := xserver.FaultPolicy{Ops: []xproto.Major{major}, EveryN: 1, Times: times, Code: xproto.BadMatch}
		if skip == 0 {
			wm.Conn().SetFaultPolicy(&policy)
			return
		}
		wm.Conn().SetInstrument(&faultAfter{conn: wm.Conn(), major: major, skip: skip, policy: policy})
	}

	for _, tc := range cases {
		t.Run(tc.major.String()+"/Times1", func(t *testing.T) {
			pump := func(wm *WM, _ xproto.XID) { wm.Pump() }
			skip := skipFor(t, tc.major, tc.target, pump)
			s, wm, app := setup(t)
			base := s.NumWindows() - 1 // without the client's window
			arm(wm, tc.major, skip, 1)
			wm.Pump()
			if got := wm.Conn().FaultCount(); got != 1 {
				t.Fatalf("FaultCount = %d, want 1", got)
			}
			wm.Conn().SetFaultPolicy(nil)

			c, ok := wm.ClientOf(app.Win)
			if !ok {
				t.Fatal("window not managed after retry")
			}
			if c.frame == nil || c.frame.Window == xproto.None {
				t.Fatal("retried manage left the client undecorated")
			}
			if _, ok := wm.byFrame[c.frame.Window]; !ok {
				t.Fatal("frame not registered after retry")
			}
			st := wm.Stats()
			if st.Errors["BadMatch"] != 1 {
				t.Errorf("Stats().Errors[BadMatch] = %d, want 1", st.Errors["BadMatch"])
			}
			if st.Managed == 0 {
				t.Error("Stats().Managed not incremented")
			}

			// A failed attempt must not have leaked a half-built frame.
			app.Close()
			wm.Pump()
			for i := 0; i < 10 && s.NumWindows() > base; i++ {
				wm.Pump()
			}
			if got := s.NumWindows(); got != base {
				t.Errorf("NumWindows = %d after close, want baseline %d", got, base)
			}
		})
		t.Run(tc.major.String()+"/Times2", func(t *testing.T) {
			manage := func(wm *WM, win xproto.XID) {
				if _, err := wm.Manage(win); err != nil {
					t.Fatalf("Manage: %v", err)
				}
			}
			skip := skipFor(t, tc.major, tc.target, manage)
			s, wm, app := setup(t)
			base := s.NumWindows()
			arm(wm, tc.major, skip, 2)
			if _, err := wm.Manage(app.Win); err == nil {
				t.Fatal("Manage succeeded despite a request failing twice")
			}
			faults := wm.Conn().FaultCount()
			wm.Conn().SetFaultPolicy(nil)
			if faults != 2 {
				t.Fatalf("FaultCount = %d, want 2", faults)
			}

			if _, ok := wm.ClientOf(app.Win); ok {
				t.Error("failed manage left the client registered")
			}
			if got := s.NumWindows(); got != base {
				t.Errorf("NumWindows = %d after rollback, want baseline %d", got, base)
			}
			if _, parent, _, err := app.Conn.QueryTree(app.Win); err != nil || parent != s.Screens()[0].Root {
				t.Errorf("client parent = 0x%x (err %v) after rollback, want the root", uint32(parent), err)
			}
			errs := 0
			for _, n := range wm.Stats().Errors {
				errs += n
			}
			if errs != faults {
				t.Errorf("Stats().Errors total = %d, want the %d injected faults", errs, faults)
			}

			// The rollback leaves the window manageable: the queued
			// MapRequest now manages it.
			wm.Pump()
			if _, ok := wm.ClientOf(app.Win); !ok {
				t.Error("window not managed after the rolled-back attempt")
			}
		})
	}
}

// Regression: shrinking the Virtual Desktop must re-clamp the pan
// offset and refresh scrollbars/panner unconditionally — PanTo's
// early-out used to leave them stale whenever the clamped offset
// equalled the current one.
func TestResizeDesktopShrinkReclampsPanAndScrollbars(t *testing.T) {
	_, wm := newWM(t, Options{
		VirtualDesktop: true, EnablePanner: true, EnableScrollbars: true,
	})
	scr := wm.Screens()[0]

	// Pan out, then shrink so the old offset is out of bounds.
	wm.PanTo(scr, 1000, 800)
	newW, newH := scr.Width+500, scr.Height+400
	wm.ResizeDesktop(scr, newW, newH)
	if scr.PanX != 500 || scr.PanY != 400 {
		t.Fatalf("pan = (%d,%d) after shrink, want (500,400)", scr.PanX, scr.PanY)
	}
	g, err := wm.Conn().GetGeometry(scr.Desktop)
	if err != nil {
		t.Fatal(err)
	}
	if g.Rect.X != -500 || g.Rect.Y != -400 {
		t.Errorf("desktop window at (%d,%d), want (-500,-400)", g.Rect.X, g.Rect.Y)
	}

	// Shrink again while the (clamped) pan offset stays in bounds: the
	// old code's PanTo early-out skipped the scrollbar redraw, leaving
	// labels advertising the old desktop size.
	wm.PanTo(scr, 100, 100)
	newW, newH = scr.Width+300, scr.Height+200
	wm.ResizeDesktop(scr, newW, newH)
	if scr.PanX != 100 || scr.PanY != 100 {
		t.Fatalf("in-bounds pan moved to (%d,%d)", scr.PanX, scr.PanY)
	}
	// Scrollbar redraws coalesce behind the view-dirty bit; flush them.
	wm.Pump()
	snap, err := wm.Conn().Snapshot(scr.hscroll)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("h:%d/%d", 100, newW); snap.Label != want {
		t.Errorf("hscroll label = %q, want %q", snap.Label, want)
	}
	snap, err = wm.Conn().Snapshot(scr.vscroll)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("v:%d/%d", 100, newH); snap.Label != want {
		t.Errorf("vscroll label = %q, want %q", snap.Label, want)
	}
}

// Regression: a failed QueryTree in the restart sweep used to return
// silently, so nothing on that screen was adopted and nothing was
// logged or counted. The WM's connection is created inside New, so
// the fault policy goes on wm.Conn() and the sweep New runs is run
// again: once failing (reported through check), once clean.
func TestAdoptQueryTreeFailureIsReported(t *testing.T) {
	var log strings.Builder
	s, wm := newWM(t, Options{Log: &log})
	app, err := clients.Launch(s, clients.Config{Instance: "xterm", Class: "XTerm", Width: 200, Height: 150})
	if err != nil {
		t.Fatal(err)
	}
	// The launch's MapRequest is redirected to the WM and not pumped;
	// mapping the window from the WM's own connection leaves it a
	// mapped, unmanaged top-level, as a predecessor WM would.
	if err := wm.Conn().MapWindow(app.Win); err != nil {
		t.Fatal(err)
	}
	scr := wm.Screens()[0]
	wm.Conn().SetFaultPolicy(&xserver.FaultPolicy{Seed: 1, EveryN: 1, Times: 1, Ops: []xproto.Major{xproto.MajorQueryTree}})
	degraded := wm.Degraded()
	wm.adoptExisting(scr)
	if got := wm.Conn().FaultCount(); got != 1 {
		t.Fatalf("injected faults = %d, want 1", got)
	}
	if _, ok := wm.ClientOf(app.Win); ok {
		t.Fatal("window adopted although QueryTree failed")
	}
	if wm.Degraded() != degraded+1 {
		t.Errorf("Degraded() = %d, want %d: the failed QueryTree was not counted", wm.Degraded(), degraded+1)
	}
	if !strings.Contains(log.String(), "adopt query tree") {
		t.Errorf("failed QueryTree not logged; log:\n%s", log.String())
	}
	// The policy is spent: the next sweep adopts the window.
	wm.adoptExisting(scr)
	if _, ok := wm.ClientOf(app.Win); !ok {
		t.Error("window not adopted once QueryTree succeeds")
	}
}
