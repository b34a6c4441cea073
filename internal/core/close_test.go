package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/clients"
	"repro/internal/objects"
	"repro/internal/templates"
	"repro/internal/xrdb"
	"repro/internal/xserver"
)

// The PR 6 lifecycle sweep: New finally has a symmetric Close. These
// tests pin down the teardown contract fleet mode depends on — no
// goroutines, no server-side windows, no retained heap state after a
// session stops, and no state bleed through the prototypes every WM on
// one resource database shares.

func TestCloseReleasesClientsAndServerState(t *testing.T) {
	s := xserver.NewServer()
	baselineWindows := s.NumWindows() // roots only
	baselineConns := s.NumConns()

	wm, err := New(s, Options{VirtualDesktop: true, EnablePanner: true})
	if err != nil {
		t.Fatal(err)
	}
	wm.Pump()

	const n = 8
	apps := make([]*clients.App, n)
	for i := range apps {
		app, err := clients.Launch(s, clients.Config{
			Instance: fmt.Sprintf("app%d", i), Class: "XTerm",
			Width: 100, Height: 80, X: 10 * i, Y: 5 * i,
		})
		if err != nil {
			t.Fatal(err)
		}
		apps[i] = app
	}
	wm.Pump()
	if len(wm.clients) < n {
		t.Fatalf("managed %d clients, want at least %d", len(wm.clients), n)
	}

	wm.Close()
	wm.Close() // idempotent

	// Every client survives on its root, mapped, exactly as a restart
	// expects to find it.
	for i, app := range apps {
		attrs, err := app.Conn.GetWindowAttributes(app.Win)
		if err != nil {
			t.Fatalf("app%d: %v", i, err)
		}
		if attrs.MapState == 0 { // IsUnmapped
			t.Errorf("app%d left unmapped after Close", i)
		}
	}

	// The WM pinned nothing: its connection is gone and with it every
	// frame, icon, desktop and panner window.
	if got := s.NumConns(); got != baselineConns+n {
		t.Errorf("connections after Close: %d, want %d (clients only)", got, baselineConns+n)
	}
	if got := s.NumWindows(); got != baselineWindows+n {
		t.Errorf("windows after Close: %d, want %d (roots + client windows)", got, baselineWindows+n)
	}

	// And retained no heap state either.
	if len(wm.clients) != 0 || len(wm.byFrame) != 0 || len(wm.byObjWin) != 0 {
		t.Errorf("maps not cleared: clients=%d byFrame=%d byObjWin=%d",
			len(wm.clients), len(wm.byFrame), len(wm.byObjWin))
	}
	if wm.orphans != nil || wm.focus != nil {
		t.Error("orphans/focus retained after Close")
	}

	for _, app := range apps {
		app.Close()
	}
	if got := s.NumWindows(); got != baselineWindows {
		t.Errorf("windows after client teardown: %d, want %d", got, baselineWindows)
	}
}

// TestCloseLeaksNoGoroutines is the goleak-style assertion from the
// issue: WMs driven by blocking Run goroutines are stopped and closed,
// and the process goroutine count settles back to its baseline.
func TestCloseLeaksNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()

	const sessions = 16
	wms := make([]*WM, sessions)
	done := make(chan int, sessions)
	for i := range wms {
		s := xserver.NewServer()
		wm, err := New(s, Options{VirtualDesktop: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := clients.Launch(s, clients.Config{
			Instance: "xclock", Class: "XClock", Width: 64, Height: 64,
		}); err != nil {
			t.Fatal(err)
		}
		wms[i] = wm
		go func(i int) {
			wms[i].Run()
			done <- i
		}(i)
	}

	// Stop each blocking Run from outside: closing the connection makes
	// WaitEvent return false once the queue drains. Only after the loop
	// goroutine has exited may Close reclaim WM state (Close is
	// event-loop-goroutine work, like every other WM method).
	for _, wm := range wms {
		wm.Conn().Close()
	}
	for i := 0; i < sessions; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Run goroutine did not exit after connection close")
		}
	}
	for _, wm := range wms {
		wm.Close()
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPrototypesSharedAcrossSessions proves that WMs on one database
// share its prototypes: the second session's identical decoration
// context is a hit, not a rebuild. A WM on a Clone of that database
// shares none of them.
func TestPrototypesSharedAcrossSessions(t *testing.T) {
	db, err := templates.Load(templates.OpenLook)
	if err != nil {
		t.Fatal(err)
	}

	decorateOne := func(db *xrdb.DB) (*WM, *Client) {
		s := xserver.NewServer()
		wm, err := New(s, Options{DB: db})
		if err != nil {
			t.Fatal(err)
		}
		app, err := clients.Launch(s, clients.Config{
			Instance: "xterm", Class: "XTerm", Width: 200, Height: 120,
		})
		if err != nil {
			t.Fatal(err)
		}
		wm.Pump()
		c, ok := wm.ClientOf(app.Win)
		if !ok {
			t.Fatal("client not managed")
		}
		return wm, c
	}

	wm1, c1 := decorateOne(db)
	if wm1.Stats().ProtoMisses == 0 {
		t.Fatal("first session should build the prototype")
	}
	wm2, c2 := decorateOne(db)
	if wm2.Stats().ProtoHits == 0 {
		t.Fatalf("second session rebuilt a shared prototype: stats=%+v", wm2.Stats())
	}
	if c1.Decoration() != c2.Decoration() {
		t.Fatalf("decorations diverged: %q vs %q", c1.Decoration(), c2.Decoration())
	}

	// The clone is a different database: its WM builds its own
	// prototypes, and a resource changed on the clone shows there only.
	clone := db.Clone()
	clone.MustPut("swm*background", "hotpink")
	wm3, c3 := decorateOne(clone)
	if st := wm3.Stats(); st.ProtoHits != 0 || st.ProtoMisses == 0 {
		t.Fatalf("WM on a clone reused a prototype: hits=%d misses=%d", st.ProtoHits, st.ProtoMisses)
	}
	pink := func(c *Client) (n int) {
		c.Frame().Walk(func(o *objects.Object) {
			if o.Attrs.Background == "hotpink" {
				n++
			}
		})
		return n
	}
	if pink(c3) == 0 {
		t.Fatal("clone's resource change did not reach its WM's decoration")
	}
	if _, c4 := decorateOne(db); pink(c4) != 0 {
		t.Fatal("clone's resource change reached a WM on the parent database")
	}
}

// TestPrototypeSurvivesClientMutation is the mutation-after-clone sweep:
// per-client mutations on a decorated frame — labels, attributes,
// bindings, structure — must never reach the cached prototype another
// session clones from.
func TestPrototypeSurvivesClientMutation(t *testing.T) {
	db, err := templates.Load(templates.OpenLook)
	if err != nil {
		t.Fatal(err)
	}
	s1 := xserver.NewServer()
	wm1, err := New(s1, Options{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	app1, err := clients.Launch(s1, clients.Config{
		Instance: "xterm", Class: "XTerm", Name: "one", Width: 200, Height: 120,
	})
	if err != nil {
		t.Fatal(err)
	}
	wm1.Pump()
	c1, ok := wm1.ClientOf(app1.Win)
	if !ok {
		t.Fatal("client not managed")
	}

	// Vandalize the first client's clone: every mutable surface.
	c1.Frame().Walk(func(o *objects.Object) {
		o.SetLabel("VANDALIZED")
		o.Attrs.Background = "hotpink"
		o.SetBindings(nil)
	})

	// A second session decorating the identical context must get the
	// pristine tree.
	s2 := xserver.NewServer()
	wm2, err := New(s2, Options{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	app2, err := clients.Launch(s2, clients.Config{
		Instance: "xterm", Class: "XTerm", Name: "one", Width: 200, Height: 120,
	})
	if err != nil {
		t.Fatal(err)
	}
	wm2.Pump()
	c2, ok := wm2.ClientOf(app2.Win)
	if !ok {
		t.Fatal("client not managed")
	}
	if wm2.Stats().ProtoHits == 0 {
		t.Fatal("expected a shared-prototype hit")
	}
	c2.Frame().Walk(func(o *objects.Object) {
		if o.Label() == "VANDALIZED" || o.Attrs.Background == "hotpink" {
			t.Fatalf("client mutation leaked into prototype at object %q", o.Name)
		}
		// applyNameLabels rewrites name-labelled objects per client, so
		// only assert the vandalism is absent, not byte equality.
	})
}
