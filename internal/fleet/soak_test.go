package fleet

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/clients"
	"repro/internal/core"
	"repro/internal/xproto"
	"repro/internal/xserver"
)

// TestFleetRaceSoak is the fleet's concurrency soak: 64 sessions
// driven concurrently through their lanes under `go test -race`, with
// fault injection (including deterministic death races via KillTarget)
// on a seeded random subset. It asserts no cross-session state bleed —
// every session's stats are its own, every client resolves only
// through its owning session, and each server's resource accounting
// is independent — while the race detector watches the shared
// database, prototype cache and lanes.
func TestFleetRaceSoak(t *testing.T) {
	const (
		sessions   = 64
		perSession = 8
		rounds     = 3
	)
	m, err := New(Config{Sessions: sessions, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.StartAll()
	m.Drain()

	// A seeded random quarter of the fleet runs with fault injection:
	// injected protocol errors plus killed target windows, the
	// asynchronous-death race at fleet scale.
	rng := rand.New(rand.NewSource(0x5eed))
	faulty := map[int]bool{}
	for len(faulty) < sessions/4 {
		faulty[rng.Intn(sessions)] = true
	}
	for i := range faulty {
		i := i
		m.Exec(i, func(wm *core.WM) {
			wm.Conn().SetFaultPolicy(&xserver.FaultPolicy{
				Seed: int64(i), Rate: 0.02, KillTarget: true,
			})
		})
	}
	m.Drain()

	apps := make([][]*clients.App, sessions)
	for i := 0; i < sessions; i++ {
		srv := m.Session(i).Server()
		for j := 0; j < perSession; j++ {
			app, err := clients.Launch(srv, clients.Config{
				Instance: fmt.Sprintf("s%dc%d", i, j), Class: "Soak",
				Width: 100, Height: 80, X: 7 * j, Y: 9 * j,
			})
			if err != nil {
				t.Fatal(err)
			}
			apps[i] = append(apps[i], app)
		}
	}

	for round := 0; round < rounds; round++ {
		m.PumpAll()
		// Restart-adopt a rotating slice on its own goroutine while
		// PumpAll keeps the fleet pumping, so restarts overlap pumps.
		restarted := make(chan struct{})
		go func() {
			defer close(restarted)
			for i := round; i < sessions; i += rounds * 2 {
				m.Restart(i)
			}
		}()
		m.PumpAll()
		<-restarted
	}
	// A restart may have won its lane after that session's pump: pump
	// once more so every restarted WM has run.
	m.PumpAll()
	m.Drain()

	// No cross-session state bleed. Servers allocate XIDs from the same
	// numeric range by design (each connection owns its ID space), so
	// isolation means: a session's clients resolve through it and only
	// it, and its stats describe only its own display.
	for i := 0; i < sessions; i++ {
		s := m.Session(i)
		if s.State() != StateRunning {
			// Fault injection may legitimately fail a session; it must
			// not have taken neighbours with it.
			if !faulty[i] {
				t.Errorf("fault-free session %d ended %v", i, s.State())
			}
			continue
		}
		wm := s.WM()
		managed := 0
		for _, c := range wm.Clients() {
			if c.IsInternal() {
				continue
			}
			managed++
			owned := false
			for _, app := range apps[i] {
				if app.Win == c.Win {
					owned = true
					break
				}
			}
			if !owned {
				t.Errorf("session %d manages window 0x%x belonging to no client of its display", i, uint32(c.Win))
			}
		}
		if !faulty[i] && managed != perSession {
			t.Errorf("session %d manages %d clients, want %d", i, managed, perSession)
		}
		// A neighbour session may resolve the same XID number — the
		// servers run identical allocation sequences — but never to this
		// session's client: the instance names are globally unique, so a
		// match with the wrong prefix is state bleed.
		other := m.Session((i + 1) % sessions)
		if other.State() == StateRunning {
			prefix := fmt.Sprintf("s%d", (i+1)%sessions)
			for _, app := range apps[i] {
				if oc, ok := other.WM().ClientOf(app.Win); ok && !oc.IsInternal() {
					if inst := oc.Class.Instance; len(inst) <= len(prefix) || inst[:len(prefix)] != prefix || inst[len(prefix)] != 'c' {
						t.Errorf("session %d resolved neighbour's window 0x%x to client %q",
							(i+1)%sessions, uint32(app.Win), inst)
					}
				}
			}
		}
		if !faulty[i] {
			if len(wm.Stats().Events) == 0 {
				t.Errorf("session %d recorded no events", i)
			}
			if srvConns := s.Server().NumConns(); srvConns != 1+perSession {
				t.Errorf("session %d server has %d conns, want WM + %d clients", i, srvConns, perSession)
			}
		}
	}

	// Faulty sessions recorded their degradations locally: fault-free
	// sessions must show zero injected-fault errors.
	for i := 0; i < sessions; i++ {
		if faulty[i] {
			continue
		}
		s := m.Session(i)
		if s.State() != StateRunning {
			continue
		}
		if count := s.WM().Conn().FaultCount(); count != 0 {
			t.Errorf("fault-free session %d saw %d injected faults", i, count)
		}
	}
}

// TestFleetSoakDistinctXIDSpaces pins the ownership rule the soak
// relies on: two sessions' servers hand out numerically identical XIDs,
// and the windows behind them are still completely independent.
func TestFleetSoakDistinctXIDSpaces(t *testing.T) {
	m, err := New(Config{Sessions: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.StartAll()
	m.Drain()

	a, err := clients.Launch(m.Session(0).Server(), clients.Config{
		Instance: "a", Class: "X", Width: 50, Height: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := clients.Launch(m.Session(1).Server(), clients.Config{
		Instance: "b", Class: "X", Width: 50, Height: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.Win != b.Win {
		t.Fatalf("expected numerically colliding XIDs (same alloc sequence), got 0x%x vs 0x%x",
			uint32(a.Win), uint32(b.Win))
	}
	m.PumpAll()
	m.Drain()

	// Same number, different windows: resizing one must not move the
	// other.
	if err := a.Conn.ConfigureWindow(a.Win, xproto.WindowChanges{Mask: xproto.CWWidth, Width: 200}); err != nil {
		t.Fatal(err)
	}
	m.PumpAll()
	m.Drain()
	ga, err := a.Conn.GetGeometry(a.Win)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := b.Conn.GetGeometry(b.Win)
	if err != nil {
		t.Fatal(err)
	}
	if ga.Rect.Width != 200 || gb.Rect.Width != 50 {
		t.Fatalf("state bled across sessions: a=%dx%d b=%dx%d",
			ga.Rect.Width, ga.Rect.Height, gb.Rect.Width, gb.Rect.Height)
	}
}
