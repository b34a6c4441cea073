package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/clients"
	"repro/internal/xproto"
	"repro/internal/xserver"
)

// TestSoakFaultInjection drives 220 manage/unmanage cycles while the
// server injects a spurious BadWindow on every 13th WM request (~7.7%
// of them). The WM must survive without panicking, without leaking
// server-side windows, and with Stats() accounting for every injected
// error exactly once.
//
// The equality assertion depends on every error the WM sees being an
// injected one, so each cycle withdraws the client (the WM unmanages
// and forgets the window) before the client destroys it — the WM never
// issues a request against a genuinely dead window. Ops mid-cycle
// re-look the client up first for the same reason: an earlier injected
// BadWindow may already have unmanaged it.
func TestSoakFaultInjection(t *testing.T) {
	s, wm := newWM(t, Options{
		VirtualDesktop: true, EnablePanner: true, EnableScrollbars: true,
	})
	scr := wm.Screens()[0]
	baseline := s.NumWindows()

	wm.Conn().SetFaultPolicy(&xserver.FaultPolicy{
		EveryN: 13, Code: xproto.BadWindow,
	})

	// A concurrent observer keeps polling the public read APIs so the
	// -race run proves Stats() and the server snapshot are safe against
	// the WM mutating underneath them.
	done := make(chan struct{})
	obsDone := make(chan struct{})
	go func() {
		defer close(obsDone)
		for {
			select {
			case <-done:
				return
			default:
				_ = wm.Stats()
				_ = s.NumWindows()
			}
		}
	}()

	const cycles = 220
	managedCycles := 0
	rng := rand.New(rand.NewSource(1990))
	for i := 0; i < cycles; i++ {
		app, err := clients.Launch(s, clients.Config{
			Instance: fmt.Sprintf("app%d", i), Class: "Soak",
			Width: 100 + rng.Intn(300), Height: 80 + rng.Intn(200),
		})
		if err != nil {
			t.Fatalf("cycle %d: launch: %v", i, err)
		}
		wm.Pump()
		if _, ok := wm.ClientOf(app.Win); ok {
			managedCycles++
		}

		for op := 0; op < 3; op++ {
			c, ok := wm.ClientOf(app.Win)
			if !ok {
				break
			}
			switch rng.Intn(6) {
			case 0:
				_ = wm.Iconify(c)
			case 1:
				_ = wm.Iconify(c)
				if c2, ok := wm.ClientOf(app.Win); ok {
					_ = wm.Deiconify(c2)
				}
			case 2:
				wm.MoveClientTo(c, rng.Intn(2000), rng.Intn(1500))
			case 3:
				_ = app.Resize(50+rng.Intn(400), 50+rng.Intn(300))
				wm.Pump()
			case 4:
				wm.PanBy(scr, rng.Intn(200)-100, rng.Intn(200)-100)
			case 5:
				wm.Pump()
			}
		}

		_ = app.Withdraw()
		wm.Pump()
		app.Close()
		wm.Pump()
	}
	close(done)
	<-obsDone

	// The point of degrading gracefully is that service continues:
	// despite the fault rate, the overwhelming majority of cycles must
	// actually manage their client (retry + confirm-dead probing).
	if managedCycles < cycles*9/10 {
		t.Errorf("only %d/%d cycles managed their client", managedCycles, cycles)
	}

	// Removing the policy resets the server's counter, so read it first.
	injected := wm.Conn().FaultCount()
	if injected < cycles {
		t.Errorf("only %d faults injected over %d cycles; policy not biting", injected, cycles)
	}
	st := wm.Stats()
	seen := 0
	for _, n := range st.Errors {
		seen += n
	}
	if seen != injected {
		t.Errorf("Stats() counted %d errors (%v), server injected %d", seen, st.Errors, injected)
	}
	if st.Errors["BadWindow"] != injected {
		t.Errorf("Stats().Errors[BadWindow] = %d, want %d", st.Errors["BadWindow"], injected)
	}

	// With injection off, the orphan janitor must drain its backlog and
	// the server return to its pre-soak window population.
	wm.Conn().SetFaultPolicy(nil)
	for i := 0; i < 100 && (len(wm.orphans) > 0 || s.NumWindows() != baseline); i++ {
		wm.Pump()
	}
	if len(wm.orphans) != 0 {
		t.Errorf("%d orphaned windows still queued after sweep", len(wm.orphans))
	}
	if got := s.NumWindows(); got != baseline {
		t.Errorf("NumWindows = %d, want baseline %d: server-side windows leaked", got, baseline)
	}

	// Bookkeeping is consistent: only WM-internal clients (panner) are
	// still managed, every client has a matching frame entry, and the
	// manage/unmanage counters agree with the map.
	for win, c := range wm.clients {
		if !c.IsInternal() {
			t.Errorf("client 0x%x still managed after soak", uint32(win))
		}
		if wm.byFrame[c.frame.Window] != c {
			t.Errorf("byFrame entry missing or wrong for 0x%x", uint32(win))
		}
	}
	if len(wm.byFrame) != len(wm.clients) {
		t.Errorf("byFrame has %d entries, clients has %d", len(wm.byFrame), len(wm.clients))
	}
	st = wm.Stats()
	if st.Managed-st.Unmanaged != len(wm.clients) {
		t.Errorf("Managed-Unmanaged = %d, want %d live clients", st.Managed-st.Unmanaged, len(wm.clients))
	}

	// CI artifact: with SWM_OBS_SNAPSHOT set, write the full metrics
	// registry as JSON so the bench job can upload what a fault-heavy
	// run actually looks like (per-op error counts, pump latency
	// distribution, panner damage) alongside the timing report.
	if path := os.Getenv("SWM_OBS_SNAPSHOT"); path != "" {
		data, err := json.MarshalIndent(wm.Metrics().Snapshot(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDeathRaceUnmanagesCleanly reproduces the asynchronous death race
// deterministically: the next ConfigureWindow the WM issues both
// destroys its target and returns BadWindow, exactly as if the client
// died between the event that prompted the request and the request
// itself. The WM must unmanage the dead client, count the race, and
// sweep its frame without leaking.
func TestDeathRaceUnmanagesCleanly(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true, EnablePanner: true})
	baseline := s.NumWindows()
	app, c := launch(t, s, wm, clients.Config{
		Instance: "doomed", Class: "XTerm", Width: 200, Height: 150,
	})
	if s.NumWindows() == baseline {
		t.Fatal("launch created no windows")
	}

	// Note: the resize shorthand is encoded as a ConfigureWindow on the
	// wire, so that is the major the Ops filter must name.
	wm.Conn().SetFaultPolicy(&xserver.FaultPolicy{
		Ops: []xproto.Major{xproto.MajorConfigureWindow}, EveryN: 1, Times: 1,
		Code: xproto.BadWindow, KillTarget: true,
	})
	wm.resizeClient(c, 300, 200)
	wm.Conn().SetFaultPolicy(nil)

	if _, ok := wm.ClientOf(app.Win); ok {
		t.Fatal("client still managed after its window died mid-request")
	}
	if st := wm.Stats(); st.DeathRaces != 1 {
		t.Errorf("Stats().DeathRaces = %d, want 1", st.DeathRaces)
	}
	for i := 0; i < 20 && s.NumWindows() != baseline; i++ {
		wm.Pump()
	}
	if got := s.NumWindows(); got != baseline {
		t.Errorf("NumWindows = %d, want %d: death race leaked frame windows", got, baseline)
	}
}
