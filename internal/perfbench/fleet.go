package perfbench

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/clients"
	"repro/internal/fleet"
)

// FleetSessions measures fleet mode end to end at the ROADMAP's
// WM-as-a-service scale: bring up n display+WM sessions, manage
// perSession clients in each, restart-adopt a quarter of the fleet,
// and tear everything down. The whole lifecycle is the
// timed region — the workload exists to keep the thousand-session
// story a measured fact rather than a claim, so both its allocation
// count and its wall clock carry blocking budgets (AllocBudgets,
// WallBudgets).
//
// The teardown is verified, not assumed: after Close the fan-out's
// goroutines must be gone and every session's server must hold only
// client-owned state (the zero-leak acceptance bar for fleet mode).
// The assertions run outside the timer so the goroutine-settle poll
// cannot pad the measurement.
func FleetSessions(n, perSession int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			goroutines := runtime.NumGoroutine()
			m, err := fleet.New(fleet.Config{Sessions: n})
			if err != nil {
				b.Fatal(err)
			}
			m.StartAll()
			if st := m.Stats(); st.Live != n {
				b.Fatalf("fleet came up degraded: %+v", st)
			}
			if err := manageClients(m, perSession, "Bench"); err != nil {
				b.Fatal(err)
			}
			slice := n / 4
			m.Each(func(s int) {
				if s < slice {
					m.Restart(s)
				}
			})
			if st := m.Stats(); st.Live != n || st.Restarts != int64(slice) {
				b.Fatalf("restart slice degraded the fleet: %+v", st)
			}
			m.Close()

			b.StopTimer()
			deadline := time.Now().Add(10 * time.Second)
			for runtime.NumGoroutine() > goroutines {
				if time.Now().After(deadline) {
					b.Fatalf("goroutines leaked: baseline %d, now %d",
						goroutines, runtime.NumGoroutine())
				}
				time.Sleep(time.Millisecond)
			}
			for s := 0; s < n; s++ {
				srv := m.Session(s).Server()
				if got := srv.NumConns(); got != perSession {
					b.Fatalf("session %d leaked connections: %d, want %d client conns", s, got, perSession)
				}
				if got := srv.NumWindows(); got != 1+perSession {
					b.Fatalf("session %d leaked windows: %d, want root+%d clients", s, got, perSession)
				}
			}
			b.StartTimer()
		}
	}
}

// manageClients launches perSession clients of the given class on
// every session's server and pumps the session so they get managed,
// one session per Each step: launching on one session overlaps with
// pumping another.
func manageClients(m *fleet.Manager, perSession int, class string) error {
	errs := make([]error, m.Sessions())
	m.Each(func(s int) {
		srv := m.Session(s).Server()
		for j := 0; j < perSession; j++ {
			if _, err := clients.Launch(srv, clients.Config{
				Instance: fmt.Sprintf("s%dc%d", s, j), Class: class,
				Width: 120, Height: 90, X: 8 * (j % 12), Y: 6 * (j % 14),
			}); err != nil {
				errs[s] = err
				return
			}
		}
		m.Pump(s)
	})
	return errors.Join(errs...)
}
