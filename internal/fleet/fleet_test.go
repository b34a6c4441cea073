package fleet

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/clients"
	"repro/internal/core"
)

// launchClients starts n simulated apps on session i's server and pumps
// the session so they get managed.
func launchClients(t *testing.T, m *Manager, i, n int) []*clients.App {
	t.Helper()
	apps := make([]*clients.App, n)
	for j := range apps {
		app, err := clients.Launch(m.Session(i).Server(), clients.Config{
			Instance: fmt.Sprintf("s%dc%d", i, j), Class: "XTerm",
			Width: 120, Height: 90, X: 8 * j, Y: 6 * j,
		})
		if err != nil {
			t.Fatal(err)
		}
		apps[j] = app
	}
	m.Pump(i)
	return apps
}

func TestFleetLifecycle(t *testing.T) {
	const sessions = 8
	m, err := New(Config{Sessions: sessions, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	m.StartAll()
	m.Drain()
	if st := m.Stats(); st.Live != sessions {
		t.Fatalf("after StartAll: %+v", st)
	}

	const perSession = 5
	for i := 0; i < sessions; i++ {
		launchClients(t, m, i, perSession)
	}
	m.Drain()
	for i := 0; i < sessions; i++ {
		wm := m.Session(i).WM()
		managed := 0
		for _, c := range wm.Clients() {
			if !c.IsInternal() {
				managed++
			}
		}
		if managed != perSession {
			t.Fatalf("session %d manages %d clients, want %d", i, managed, perSession)
		}
	}

	// Restart-adopt a slice: the first half shuts down, restarts on the
	// same server, and re-adopts every client.
	for i := 0; i < sessions/2; i++ {
		m.Restart(i)
	}
	m.Drain()
	st := m.Stats()
	if st.Live != sessions || st.Restarts != sessions/2 {
		t.Fatalf("after restart slice: %+v", st)
	}
	for i := 0; i < sessions/2; i++ {
		wm := m.Session(i).WM()
		managed := 0
		for _, c := range wm.Clients() {
			if !c.IsInternal() {
				managed++
			}
		}
		if managed != perSession {
			t.Fatalf("session %d lost clients across restart: %d of %d", i, managed, perSession)
		}
		if got := m.Session(i).Restarts(); got != 1 {
			t.Fatalf("session %d restart count = %d", i, got)
		}
	}

	m.StopAll()
	m.Drain()
	st = m.Stats()
	if st.Stopped != sessions || st.Live != 0 {
		t.Fatalf("after StopAll: %+v", st)
	}
	// Each server keeps only client connections and windows: the WM
	// released everything it owned.
	for i := 0; i < sessions; i++ {
		srv := m.Session(i).Server()
		if got := srv.NumConns(); got != perSession {
			t.Errorf("session %d: %d conns after stop, want %d client conns", i, got, perSession)
		}
		if got := srv.NumWindows(); got != 1+perSession {
			t.Errorf("session %d: %d windows after stop, want root+%d clients", i, got, perSession)
		}
	}
}

func TestFleetPanicIsolation(t *testing.T) {
	m, err := New(Config{Sessions: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.StartAll()
	m.Drain()

	m.Exec(1, func(*core.WM) { panic("deliberate session crash") })
	m.PumpAll() // gated off for the failed session, normal for the rest
	m.Drain()

	st := m.Stats()
	if st.Failed != 1 || st.Live != 3 || st.Panics != 1 {
		t.Fatalf("after panic: %+v", st)
	}
	if got := m.Session(1).State(); got != StateFailed {
		t.Fatalf("session 1 state = %v", got)
	}
	if got := m.Session(1).Panics(); got != 1 {
		t.Fatalf("session 1 panic count = %d", got)
	}

	// The crashed session recovers through the restart path and the
	// fleet returns to full strength.
	m.Restart(1)
	m.Drain()
	if st := m.Stats(); st.Live != 4 || st.Failed != 0 {
		t.Fatalf("after recovery: %+v", st)
	}
	launchClients(t, m, 1, 2)
	m.Drain()
	if got := m.Session(1).WM().Stats().Managed; got < 2 {
		t.Fatalf("recovered session manages %d clients", got)
	}
}

func TestFleetCloseLeaksNothing(t *testing.T) {
	baseline := runtime.NumGoroutine()

	m, err := New(Config{Sessions: 6, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	m.StartAll()
	m.Drain()
	for i := 0; i < 6; i++ {
		launchClients(t, m, i, 3)
	}
	m.Drain()
	m.Close()

	// Each's goroutines are joined and sessions closed: goroutines
	// settle back to the baseline, and no server retains a WM
	// connection.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < 6; i++ {
		if got := m.Session(i).Server().NumConns(); got != 3 {
			t.Errorf("session %d: %d conns after Close, want 3 client conns", i, got)
		}
	}

	// Operations on a closed fleet are skipped, not deadlocked.
	m.PumpAll()
	m.Drain()
	m.Close() // idempotent
}

// TestFleetSharesPrototypes proves that sessions share the prototypes
// their one database memoizes: one session pays the build, every other
// session decorating the identical context hits.
func TestFleetSharesPrototypes(t *testing.T) {
	const sessions = 6
	m, err := New(Config{Sessions: sessions, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.StartAll()
	m.Drain()

	// Build the prototype from session 0 alone.
	launchClients(t, m, 0, 1)
	m.Drain()
	if st := m.Session(0).WM().Stats(); st.ProtoMisses == 0 {
		t.Fatal("session 0 did not build the first prototype")
	}

	for i := 1; i < sessions; i++ {
		launchClients(t, m, i, 1)
	}
	m.Drain()
	for i := 1; i < sessions; i++ {
		st := m.Session(i).WM().Stats()
		if st.ProtoMisses != 0 || st.ProtoHits == 0 {
			t.Errorf("session %d rebuilt a shared prototype: hits=%d misses=%d",
				i, st.ProtoHits, st.ProtoMisses)
		}
	}
}

// TestNewStartsNoGoroutine pins that a fleet costs no goroutine while
// idle: every operation runs on its caller, and only Each starts
// goroutines, for as long as it runs.
func TestNewStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	m, err := New(Config{Sessions: 16, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("New changed the goroutine count from %d to %d", before, after)
	}
}

func TestFleetConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted zero sessions")
	}
}
