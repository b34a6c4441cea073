package fleet

import (
	"bytes"
	"encoding/json"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/swmproto"
)

func serveFleet(t *testing.T, sessions int) *Manager {
	t.Helper()
	m, err := New(Config{Sessions: sessions, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	m.StartAll()
	m.Drain()
	return m
}

func TestServeSessionQueryRoundTrip(t *testing.T) {
	m := serveFleet(t, 2)
	launchClients(t, m, 1, 3)
	m.Drain()

	resp := m.ServeSession(1, swmproto.Request{ID: 7, Op: swmproto.OpQuery, Target: swmproto.TargetClients})
	if !resp.OK {
		t.Fatalf("clients query failed: %+v", resp)
	}
	if resp.V != swmproto.Version || resp.ID != 7 {
		t.Errorf("envelope header v=%d id=%d, want v=%d id=7", resp.V, resp.ID, swmproto.Version)
	}
	var res swmproto.ClientsResult
	if err := json.Unmarshal(resp.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Clients) != 3 {
		t.Errorf("session 1 clients = %d, want 3", len(res.Clients))
	}

	// Sessions are isolated: session 0 has no clients.
	resp = m.ServeSession(0, swmproto.Request{Op: swmproto.OpQuery, Target: swmproto.TargetClients})
	if !resp.OK {
		t.Fatalf("session 0 query failed: %+v", resp)
	}
	if err := json.Unmarshal(resp.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Clients) != 0 {
		t.Errorf("session 0 clients = %d, want 0", len(res.Clients))
	}
}

func TestServeSessionExec(t *testing.T) {
	m := serveFleet(t, 1)
	launchClients(t, m, 0, 1)
	m.Drain()

	resp := m.ServeSession(0, swmproto.Request{Op: swmproto.OpExec, Command: "f.iconify(XTerm)"})
	if !resp.OK {
		t.Fatalf("exec failed: %+v", resp)
	}
	resp = m.ServeSession(0, swmproto.Request{Op: swmproto.OpExec, Command: "f.bogus()"})
	if resp.OK || resp.Code != swmproto.CodeExecFailed {
		t.Errorf("bogus exec = %+v, want code %s", resp, swmproto.CodeExecFailed)
	}
}

func TestServeSessionErrorEnvelopes(t *testing.T) {
	m := serveFleet(t, 2)

	if resp := m.ServeSession(99, swmproto.Request{Op: swmproto.OpQuery, Target: swmproto.TargetStats}); resp.OK || resp.Code != swmproto.CodeUnknownSession {
		t.Errorf("out-of-range session = %+v", resp)
	}
	if resp := m.ServeSession(-1, swmproto.Request{}); resp.OK || resp.Code != swmproto.CodeUnknownSession {
		t.Errorf("negative session = %+v", resp)
	}

	m.Stop(1)
	m.Drain()
	if resp := m.ServeSession(1, swmproto.Request{Op: swmproto.OpQuery, Target: swmproto.TargetStats}); resp.OK || resp.Code != swmproto.CodeSessionDown {
		t.Errorf("stopped session = %+v", resp)
	}

	if resp := m.ServeSession(0, swmproto.Request{Op: swmproto.OpQuery, Target: "nonsense"}); resp.OK || resp.Code != swmproto.CodeUnknownTarget {
		t.Errorf("unknown target = %+v", resp)
	}
	if resp := m.ServeSession(0, swmproto.Request{Op: "mystery"}); resp.OK || resp.Code != swmproto.CodeUnknownOp {
		t.Errorf("unknown op = %+v", resp)
	}
}

// TestServeSessionTimeout pins the degrade path: a request stuck
// behind a slow lane answers with a timeout envelope instead of
// hanging the transport.
func TestServeSessionTimeout(t *testing.T) {
	m := serveFleet(t, 1)
	m.serveTimeout = 30 * time.Millisecond

	// Hold the session's lane so the request waits past the timeout.
	s := m.sessions[0]
	s.lane <- struct{}{}
	resp := m.ServeSession(0, swmproto.Request{ID: 3, Op: swmproto.OpQuery, Target: swmproto.TargetStats})
	<-s.lane
	if resp.OK || resp.Code != swmproto.CodeTimeout {
		t.Errorf("stuck lane = %+v, want code %s", resp, swmproto.CodeTimeout)
	}
	if resp.ID != 3 {
		t.Errorf("timeout envelope id = %d, want 3", resp.ID)
	}
	// The lane is free again; the session serves again.
	if resp := m.ServeSession(0, swmproto.Request{Op: swmproto.OpQuery, Target: swmproto.TargetDesktop}); !resp.OK {
		t.Errorf("after unblocking = %+v", resp)
	}
}

// TestServeSessionFailedLane pins the crashed-session path: a Failed
// session answers session_down, and serves again after Restart.
func TestServeSessionFailedLane(t *testing.T) {
	m := serveFleet(t, 1)
	s := m.sessions[0]
	m.Exec(0, func(*core.WM) { panic("serve fixture crash") })
	if st := s.State(); st != StateFailed {
		t.Fatalf("session state = %s, want failed", st)
	}
	if resp := m.ServeSession(0, swmproto.Request{}); resp.Code != swmproto.CodeSessionDown {
		t.Errorf("failed session = %+v", resp)
	}
	m.Restart(0)
	m.Drain()
	if resp := m.ServeSession(0, swmproto.Request{Op: swmproto.OpQuery, Target: swmproto.TargetDesktop}); !resp.OK {
		t.Errorf("restarted session = %+v", resp)
	}
}

// TestServeSessionPanicAnswersAtOnce pins the lane's failure path: a
// request that panics on the caller's goroutine answers session_down
// as soon as the blast wall has recovered, not a timeout envelope, and
// the session is Failed.
func TestServeSessionPanicAnswersAtOnce(t *testing.T) {
	m := serveFleet(t, 1)

	// No other goroutine drives the session, so the test owns the WM;
	// without one, ServeProto panics.
	s := m.sessions[0]
	s.wm = nil
	resp := m.ServeSession(0, swmproto.Request{ID: 4, Op: swmproto.OpQuery, Target: swmproto.TargetStats})
	if resp.OK || resp.Code != swmproto.CodeSessionDown || resp.ID != 4 {
		t.Errorf("panicking request = %+v, want code %s", resp, swmproto.CodeSessionDown)
	}
	if st := s.State(); st != StateFailed {
		t.Errorf("session state = %s, want failed", st)
	}
	if n := s.Panics(); n != 1 {
		t.Errorf("session panics = %d, want 1", n)
	}
}

// TestServeSessionStoppedBeforeLaneTurn pins the gate-skip path: a
// request whose session stops between the state check and its lane
// turn answers session_down when that turn comes, not a timeout
// envelope.
func TestServeSessionStoppedBeforeLaneTurn(t *testing.T) {
	m := serveFleet(t, 1)
	s := m.sessions[0]

	// Hold the lane so the request passes the state check and waits;
	// then stop the session under the held lane, as a Stop that won
	// the lane first would.
	s.lane <- struct{}{}
	got := make(chan swmproto.Response)
	go func() { got <- m.ServeSession(0, swmproto.Request{Op: swmproto.OpExec, Command: "f.nop"}) }()
	waitInAcquire(t)
	if !s.runHeld(taskStop, true, s.stop) {
		t.Fatal("stop under the held lane did not run")
	}
	<-s.lane
	if resp := <-got; resp.Code != swmproto.CodeSessionDown {
		t.Errorf("stopped session = %+v, want code %s", resp, swmproto.CodeSessionDown)
	}

	// With the lane free and the session stopped, the gate skips work.
	if s.run(taskWork, func() { t.Error("the gate ran work on a stopped session") }) {
		t.Error("run reported work on a stopped session as done")
	}
}

// waitInAcquire returns once a goroutine is inside Session.acquire,
// that is, past ServeSession's state check and at its lane.
func waitInAcquire(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<16)
	for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
		if n := runtime.Stack(buf, true); bytes.Contains(buf[:n], []byte("fleet.(*Session).acquire")) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no request reached its lane")
		}
	}
}

// TestServeSessionIdleLaneAllocBudget pins the idle lane's cost: an
// exec runs on the caller with no closure, channel, timer or goroutine
// handoff. What is left is ServeProto's own two allocations; the task
// FIFO's request record cost one more, the worker pool round trip 8.
func TestServeSessionIdleLaneAllocBudget(t *testing.T) {
	m := serveFleet(t, 1)
	req := swmproto.Request{Op: swmproto.OpExec, Command: "f.nop"}
	avg := testing.AllocsPerRun(200, func() {
		if resp := m.ServeSession(0, req); !resp.OK {
			t.Fatalf("exec: %+v", resp)
		}
	})
	const budget = 2 // through the task FIFO: 3; through the worker pool: 8
	if avg > budget {
		t.Errorf("idle-lane exec = %.1f allocs/op, budget %d — is the request crossing to another goroutine again?", avg, budget)
	}
}

// TestServeSessionInlineConcurrent drives idle and busy lanes at
// once: 16 goroutines send mixed execs and queries to 4 sessions while
// Exec calls and PumpAll keep the lanes contended. Before each request
// a goroutine runs an Exec witness; since the request follows it, the
// witness must have run by the time the response comes back (cache
// hits included), and each goroutine's witnesses run in its own order.
func TestServeSessionInlineConcurrent(t *testing.T) {
	const sessions, goroutines, rounds = 4, 16, 100
	m := serveFleet(t, sessions)
	for i := 0; i < sessions; i++ {
		launchClients(t, m, i, 2)
	}
	m.Drain()

	reqs := []swmproto.Request{
		{Op: swmproto.OpExec, Command: "f.circleup"},
		{Op: swmproto.OpQuery, Target: swmproto.TargetStats},
		{Op: swmproto.OpExec, Command: "f.nop"},
		{Op: swmproto.OpQuery, Target: swmproto.TargetClients},
		{Op: swmproto.OpQuery, Target: swmproto.TargetDesktop},
	}
	var (
		mu      sync.Mutex
		applied [goroutines]int // last witness each goroutine saw run
		wg      sync.WaitGroup
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			session := g % sessions
			for k := 1; k <= rounds; k++ {
				m.Exec(session, func(*core.WM) {
					mu.Lock()
					defer mu.Unlock()
					if applied[g] != k-1 {
						t.Errorf("goroutine %d: witness %d ran after %d", g, k, applied[g])
					}
					applied[g] = k
				})
				req := reqs[(g+k)%len(reqs)]
				req.ID = uint64(g*1000 + k)
				resp := m.ServeSession(session, req)
				if !resp.OK {
					t.Errorf("goroutine %d request %d (%s %s%s): %+v", g, k, req.Op, req.Target, req.Command, resp)
				}
				mu.Lock()
				if applied[g] != k {
					t.Errorf("goroutine %d: request %d answered before its witness ran (last %d)", g, k, applied[g])
				}
				mu.Unlock()
				if k%8 == 0 {
					m.PumpAll()
				}
			}
		}()
	}
	wg.Wait()
	drained := make(chan struct{})
	go func() {
		m.Drain()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		t.Fatal("Drain did not return")
	}
	for g, k := range applied {
		if k != rounds {
			t.Errorf("goroutine %d: %d witnesses ran, want %d", g, k, rounds)
		}
	}
}

// TestServeSessionConcurrent hammers one small fleet from many
// goroutines — the HTTP transport's concurrency shape, checked here
// under -race without the HTTP layer in the way.
func TestServeSessionConcurrent(t *testing.T) {
	m := serveFleet(t, 4)
	for i := 0; i < 4; i++ {
		launchClients(t, m, i, 2)
	}
	m.Drain()

	const goroutines = 16
	const perG = 25
	targets := []string{swmproto.TargetStats, swmproto.TargetClients, swmproto.TargetDesktop, swmproto.TargetTrace}
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				session := (g + i) % m.Sessions()
				resp := m.ServeSession(session, swmproto.Request{
					ID: uint64(g*1000 + i), Op: swmproto.OpQuery, Target: targets[i%len(targets)],
				})
				if !resp.OK {
					errs <- resp.Error
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("concurrent query failed: %s", e)
	}
}

func TestSessionRegistryLifecycle(t *testing.T) {
	m := serveFleet(t, 2)
	if m.SessionRegistry(0) == nil {
		t.Fatal("running session has nil registry")
	}
	if m.SessionRegistry(0) != m.Session(0).WM().Metrics() {
		t.Error("SessionRegistry disagrees with the WM's registry")
	}
	if m.SessionRegistry(99) != nil || m.SessionRegistry(-1) != nil {
		t.Error("out-of-range session returned a registry")
	}
	m.Stop(0)
	m.Drain()
	if m.SessionRegistry(0) != nil {
		t.Error("stopped session kept its registry published")
	}
	m.Start(0)
	m.Drain()
	if m.SessionRegistry(0) == nil {
		t.Error("restarted session did not republish its registry")
	}
	if m.SessionState(0) != "running" || m.SessionState(99) != "unknown" {
		t.Errorf("states = %s/%s", m.SessionState(0), m.SessionState(99))
	}
}
