// Package fleet runs many independent swm sessions — display server,
// connection, window manager — inside one process. The paper frames swm
// as a shell around mechanism with all policy in the resource database;
// nothing ties one process to one display, and the ROADMAP's
// WM-as-a-service direction needs exactly this multiplication: a
// thousand sessions sharing one address space and one template
// database — and with it the compiled query trie and the decoration
// prototypes the database memoizes.
//
// Architecture:
//
//   - Each Session owns its xserver.Server, its WM connection and its
//     core.WM. Sessions never touch each other's state; the only shared
//     structure is the read-mostly xrdb database (queries walk its
//     atomic snapshot, its memo sits behind its lock; see xrdb.DB for
//     the contract).
//   - Each session has a lane, a one-slot semaphore. Every session
//     operation (Start, Stop, Restart, Pump, Exec, a ServeSession exec
//     or cache miss) runs on the goroutine that calls it, while that
//     goroutine holds the lane. A session's operations therefore never
//     run concurrently with each other, which is what makes lock-free
//     core.WM safe to drive here, and none of them crosses to another
//     goroutine. Each fans one step out over the fleet on at most
//     Workers goroutines; it is the only place the package starts one.
//   - Operations run isolated: a panic marks that one session Failed,
//     increments fleet.session_panics, and returns to the caller as a
//     skipped operation. A crashing session degrades; it never takes
//     down the fleet. A Failed session can be recovered with Restart.
//   - Operations are synchronous, so an Exec fn must not call back
//     into the Manager for its own session: the lane is held, and the
//     call would wait on itself forever.
//
// Lifecycle state machine (see DESIGN.md §11):
//
//	Stopped --Start--> Starting --ok--> Running
//	Starting --error/panic--> Failed
//	Running --panic--> Failed
//	Running --Restart--> Running   (shutdown + adopt, clients survive)
//	Failed  --Restart--> Running   (recovery path)
//	Running --Stop--> Stopped      (WM.Close, clients released)
//	Failed  --Stop--> Stopped
package fleet

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/swmproto"
	"repro/internal/templates"
	"repro/internal/xrdb"
	"repro/internal/xserver"
)

// State is a session's lifecycle state.
type State int32

const (
	StateStopped State = iota
	StateStarting
	StateRunning
	StateFailed
)

func (st State) String() string {
	switch st {
	case StateStopped:
		return "stopped"
	case StateStarting:
		return "starting"
	case StateRunning:
		return "running"
	case StateFailed:
		return "failed"
	}
	return fmt.Sprintf("state(%d)", int32(st))
}

// taskKind gates which operations a session in a given state will
// run: a Failed session runs only recovery (restart, stop), a Stopped
// session only a start. Everything else is silently skipped — a pump
// that reaches a session that crashed a moment earlier is not an
// error, it is the fleet degrading by one session.
type taskKind int

const (
	taskStart taskKind = iota
	taskWork           // pump, exec, protocol request — requires Running
	taskRestart
	taskStop
)

// Config configures a Manager.
type Config struct {
	// Sessions is the number of sessions to create (required).
	Sessions int
	// Workers bounds how many goroutines Each fans out on; default
	// min(GOMAXPROCS, 8).
	Workers int
	// DB is the shared resource database; nil loads the built-in
	// default template once for the whole fleet.
	DB *xrdb.DB
	// Log receives fleet diagnostics (panics, start failures); nil
	// discards them.
	Log io.Writer
}

// Manager owns a fleet of sessions.
type Manager struct {
	cfg Config
	db  *xrdb.DB

	// serveTimeout bounds how long ServeSession waits for a busy lane:
	// a lane stuck behind a long operation answers with a timeout
	// envelope instead of hanging the caller.
	serveTimeout time.Duration

	reg             *obs.Registry
	sessionsLive    *obs.Gauge
	sessionPanics   *obs.Counter
	sessionRestarts *obs.Counter
	sessionsStarted *obs.Counter
	sessionsStopped *obs.Counter

	// closed is set by Close: an operation that takes a lane afterwards
	// is skipped, unless it is a Stop. The sessions slice is immutable
	// after New.
	closed   atomic.Bool
	sessions []*Session
}

// Session is one display+WM pair. Its WM state is owned by its lane:
// at most one goroutine holds the lane at any moment, so operations
// see the WM exactly as a single event-loop goroutine would.
type Session struct {
	ID  int
	mgr *Manager

	// server is created at fleet construction and survives restarts
	// (that is what makes restart-adopt meaningful: the clients live in
	// the server across the WM generation change).
	server *xserver.Server

	state atomic.Int32

	// lane is the session's one-slot semaphore: a send takes it, a
	// receive releases it, and an operation holds it from its state
	// gate to its return.
	lane chan struct{}

	// wm is owned by the lane; outside an operation it may only be read
	// while no other goroutine drives the session (see WM).
	wm *core.WM

	// reg mirrors wm.Metrics() behind an atomic pointer so scrape
	// paths (the /metrics exporter) can read a session's registry from
	// any goroutine without a lane turn: the registry itself is
	// internally synchronized, only the WM pointer is lane-owned.
	reg atomic.Pointer[obs.Registry]

	// gen counts observable-state generations. It changes only while
	// the lane is held, just before a mutating operation (start, stop,
	// restart, pump, exec) runs, and a cache miss reads it while
	// holding the lane. So a payload tagged g renders exactly the state
	// of generation g. Warm queries read it lock-free to validate the
	// cache.
	gen atomic.Uint64

	// cache holds the session's pre-rendered query payloads, one slot
	// per cacheable target (see cacheSlot), each filled only by a miss
	// on its own target. Each payload is immutable after publish —
	// DESIGN.md §15's snapshot-cache protocol: a warm query is an
	// atomic gen load plus an atomic payload load, zero lane turns,
	// zero registry iteration.
	cache [slotCount]atomic.Pointer[queryPayload]

	panics   atomic.Int64
	restarts atomic.Int64
}

// queryPayload is one pre-rendered query result: the marshalled
// Result bytes tagged with the generation they were rendered under.
// Frozen after Store; serving aliases body without copying.
type queryPayload struct {
	gen  uint64
	body []byte
}

// Cache slots, one per cacheable query target. A slot is rendered
// only when a query for its own target misses, so a read of one
// target never pays for the others.
const (
	slotStats = iota
	slotClients
	slotDesktop
	slotTrace
	slotCount
)

// cacheSlot maps a query target to its cache slot, -1 for targets the
// cache does not cover.
func cacheSlot(target string) int {
	switch target {
	case swmproto.TargetStats:
		return slotStats
	case swmproto.TargetClients:
		return slotClients
	case swmproto.TargetDesktop:
		return slotDesktop
	case swmproto.TargetTrace:
		return slotTrace
	}
	return -1
}

// New creates a fleet: the shared database and prototype cache, and
// the session set (each with its own server and lane, all Stopped). It
// starts no goroutine. Call StartAll (or Start) to bring sessions up,
// and Close to tear the fleet down.
func New(cfg Config) (*Manager, error) {
	if cfg.Sessions <= 0 {
		return nil, fmt.Errorf("fleet: Sessions must be positive, got %d", cfg.Sessions)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = min(runtime.GOMAXPROCS(0), 8)
	}
	db := cfg.DB
	if db == nil {
		var err error
		db, err = templates.Load(templates.Default)
		if err != nil {
			return nil, err
		}
	}
	m := &Manager{
		cfg:          cfg,
		db:           db,
		serveTimeout: 5 * time.Second,
		reg:          obs.NewRegistry(),
	}
	m.sessionsLive = m.reg.Gauge("fleet.sessions_live")
	m.sessionPanics = m.reg.Counter("fleet.session_panics")
	m.sessionRestarts = m.reg.Counter("fleet.session_restarts")
	m.sessionsStarted = m.reg.Counter("fleet.sessions_started")
	m.sessionsStopped = m.reg.Counter("fleet.sessions_stopped")

	for i := 0; i < cfg.Sessions; i++ {
		m.sessions = append(m.sessions, &Session{
			ID:     i,
			mgr:    m,
			server: xserver.NewServer(),
			lane:   make(chan struct{}, 1),
		})
	}
	return m, nil
}

// DB returns the fleet's shared resource database.
func (m *Manager) DB() *xrdb.DB { return m.db }

// Metrics returns the fleet's instrument registry; Snapshot() it for a
// point-in-time view.
func (m *Manager) Metrics() *obs.Registry { return m.reg }

// Sessions reports the fleet size.
func (m *Manager) Sessions() int { return len(m.sessions) }

// Session returns session i.
func (m *Manager) Session(i int) *Session { return m.sessions[i] }

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Log != nil {
		fmt.Fprintf(m.cfg.Log, "fleet: "+format+"\n", args...)
	}
}

// run takes the session's lane, runs op under it (see runHeld) and
// releases it. Every operation but a ServeSession request, which takes
// the lane with a timeout, goes through here; all of them mutate.
func (s *Session) run(k taskKind, op func()) bool {
	s.lane <- struct{}{}
	defer func() { <-s.lane }()
	return s.runHeld(k, true, op)
}

// runHeld is the one run path, entered with the lane held. It skips op
// if the fleet is closed (a Stop still runs) or the state gate refuses
// it, bumps gen before op runs if op mutates, and runs op behind the
// fleet's blast wall: a panic marks the session Failed and is
// accounted, never propagated. It reports whether op ran to
// completion.
func (s *Session) runHeld(k taskKind, mutate bool, op func()) bool {
	m := s.mgr
	if m.closed.Load() && k != taskStop || !s.admits(k) {
		return false
	}
	if mutate {
		s.gen.Add(1)
	}
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			m.sessionPanics.Inc()
			prev := State(s.state.Swap(int32(StateFailed)))
			if prev == StateRunning {
				m.sessionsLive.Set(m.liveCount())
			}
			m.logf("session %d panic (now failed): %v\n%s", s.ID, r, debug.Stack())
		}
	}()
	op()
	return true
}

// admits applies the state gate: see taskKind.
func (s *Session) admits(k taskKind) bool {
	switch State(s.state.Load()) {
	case StateStopped:
		return k == taskStart
	case StateRunning:
		return k != taskStart
	case StateFailed:
		return k == taskRestart || k == taskStop
	}
	return false
}

// liveCount recounts running sessions; cheap (an atomic load per
// session) and immune to the increment/decrement drift a shared counter
// accumulates across racing transitions.
func (m *Manager) liveCount() int64 {
	var n int64
	for _, s := range m.sessions {
		if State(s.state.Load()) == StateRunning {
			n++
		}
	}
	return n
}

// install makes wm the session's WM and publishes its registry pointer
// for scrapes. It runs under the session's lane.
func (s *Session) install(wm *core.WM) {
	s.wm = wm
	s.reg.Store(wm.Metrics())
}

// Start brings session i up. No-op unless the session is Stopped.
func (m *Manager) Start(i int) {
	s := m.sessions[i]
	s.run(taskStart, func() {
		s.state.Store(int32(StateStarting))
		wm, err := core.New(s.server, core.Options{DB: m.db})
		if err != nil {
			s.state.Store(int32(StateFailed))
			m.logf("session %d start: %v", s.ID, err)
			return
		}
		s.install(wm)
		s.state.Store(int32(StateRunning))
		m.sessionsStarted.Inc()
		m.sessionsLive.Set(m.liveCount())
	})
}

// Stop releases session i: its WM closes (clients are reparented to
// the root and survive on the session's server), and the session
// returns to Stopped, restartable later.
func (m *Manager) Stop(i int) {
	s := m.sessions[i]
	s.run(taskStop, s.stop)
}

// stop is Stop's operation, run under the lane.
func (s *Session) stop() {
	if s.wm != nil {
		s.wm.Close()
		s.wm = nil
	}
	s.reg.Store(nil)
	prev := State(s.state.Swap(int32(StateStopped)))
	if prev == StateRunning {
		s.mgr.sessionsStopped.Inc()
	}
	s.mgr.sessionsLive.Set(s.mgr.liveCount())
}

// Restart replays the paper's f.restart inside session i: the old WM
// shuts down (clients reparent to the root, mapped), a fresh WM starts
// on the same server and adopts them. It is also the recovery path for
// a Failed session.
func (m *Manager) Restart(i int) {
	s := m.sessions[i]
	s.run(taskRestart, func() {
		if s.wm != nil {
			s.wm.Shutdown()
			s.wm = nil
		}
		s.reg.Store(nil)
		wm, err := core.New(s.server, core.Options{DB: m.db})
		if err != nil {
			s.state.Store(int32(StateFailed))
			m.sessionsLive.Set(m.liveCount())
			m.logf("session %d restart: %v", s.ID, err)
			return
		}
		s.install(wm)
		s.restarts.Add(1)
		m.sessionRestarts.Inc()
		s.state.Store(int32(StateRunning))
		m.sessionsLive.Set(m.liveCount())
	})
}

// Pump runs one event-pump cycle on session i.
func (m *Manager) Pump(i int) {
	s := m.sessions[i]
	s.run(taskWork, func() { s.wm.Pump() })
}

// Exec runs fn with session i's WM while holding its lane — the fleet
// equivalent of being on the event-loop goroutine. fn must not retain
// the WM past its return, and must not call back into the Manager for
// session i: the lane is held, so that call would wait on itself.
func (m *Manager) Exec(i int, fn func(*core.WM)) {
	s := m.sessions[i]
	s.run(taskWork, func() { fn(s.wm) })
}

// Each calls fn(i) for every session i on min(Workers, Sessions)
// goroutines and returns when every call has returned. It is the
// fleet's one fan-out: StartAll, StopAll and PumpAll are Each over one
// operation, and a caller that prepares each session before pumping it
// passes the whole step as fn, so preparing one session overlaps with
// pumping another.
func (m *Manager) Each(fn func(i int)) {
	n := min(m.cfg.Workers, len(m.sessions))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(n)
	for range n {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(m.sessions); i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// StartAll starts every session.
func (m *Manager) StartAll() { m.Each(m.Start) }

// StopAll stops every session.
func (m *Manager) StopAll() { m.Each(m.Stop) }

// PumpAll runs a pump on every session.
func (m *Manager) PumpAll() { m.Each(m.Pump) }

// Drain takes and releases every session's lane in turn, so every
// operation that held a lane when Drain reached it has finished when
// Drain returns. Operations run on their callers, so a goroutine never
// needs Drain after its own calls; it is the barrier that makes
// Session.WM and fleet stats safe to read while other goroutines drive
// the fleet.
func (m *Manager) Drain() {
	for _, s := range m.sessions {
		s.lane <- struct{}{}
		<-s.lane
	}
}

// Close marks the fleet closed and stops every session; clients
// survive on their sessions' servers. Afterwards every operation but
// Stop is skipped, so Close is idempotent.
func (m *Manager) Close() {
	m.closed.Store(true)
	m.StopAll()
}

// Server returns the session's display server. The server is created
// at fleet construction and never replaced, so this is safe from any
// goroutine; the server itself is internally synchronized.
func (s *Session) Server() *xserver.Server { return s.server }

// State returns the session's lifecycle state.
func (s *Session) State() State { return State(s.state.Load()) }

// Panics reports how many operations this session lost to panics.
func (s *Session) Panics() int64 { return s.panics.Load() }

// Restarts reports how many restart-adopt cycles this session ran.
func (s *Session) Restarts() int64 { return s.restarts.Load() }

// WM returns the session's window manager. It is owned by the lane:
// only read it from inside Exec, or while no other goroutine drives the
// session (after the caller's own operations return, or after Drain).
// It is nil unless the session is Running or Failed-with-a-live-WM.
func (s *Session) WM() *core.WM { return s.wm }

// Stats is a point-in-time fleet summary.
type Stats struct {
	Sessions int
	Live     int
	Stopped  int
	Starting int
	Failed   int

	Panics   int64
	Restarts int64
	Started  int64
}

// The Manager is the fleet-shaped implementation of the protocol's
// session-addressed handler seam: transports route requests here and
// the Manager runs them under the addressed session's lane.
var _ swmproto.SessionHandler = (*Manager)(nil)

// ServeSession serves one protocol request against session id. A warm
// cacheable query is answered from the session's snapshot cache
// without touching the lane. Anything else runs on the caller while it
// holds the session's lane — the same serialization a Pump gets, which
// is what makes the lane-owned WM safe to query. An idle lane is taken
// at once; a busy one is waited for up to five seconds. All failure
// modes come back as protocol envelopes (unknown_session,
// session_down, timeout), never as Go errors: the envelope is the
// transport contract, and HTTP status / exit codes derive from the
// code. A request the state gate skipped, or that panicked, answers
// session_down at once. Safe to call from any goroutine; concurrent
// requests against one session serialize on its lane, requests against
// different sessions run in parallel.
func (m *Manager) ServeSession(id int, req swmproto.Request) swmproto.Response {
	resp := m.serveSession(id, req)
	// Stamp the envelope header exactly as the property transport's
	// sendReply does, so the two transports answer byte-identically.
	resp.V = swmproto.Version
	resp.ID = req.ID
	return resp
}

func (m *Manager) serveSession(id int, req swmproto.Request) swmproto.Response {
	if id < 0 || id >= len(m.sessions) {
		return swmproto.Errorf(swmproto.CodeUnknownSession, "no session %d (fleet has %d)", id, len(m.sessions))
	}
	s := m.sessions[id]
	if st := s.State(); st != StateRunning {
		return swmproto.Errorf(swmproto.CodeSessionDown, "session %d is %s", id, st)
	}

	// The snapshot cache: default-screen queries against cacheable
	// targets serve pre-rendered bytes when nothing has mutated since
	// they were rendered — two atomic loads, no lane turn, no
	// allocation. The tag is read BEFORE the payload so a concurrent
	// render can only make us conservative (recompute), never stale;
	// see Session.gen for why a payload tagged g is generation g.
	slot := -1
	if req.Op == swmproto.OpQuery && req.Screen == 0 {
		if slot = cacheSlot(req.Target); slot >= 0 {
			gen := s.gen.Load()
			if p := s.cache[slot].Load(); p != nil && p.gen == gen {
				return swmproto.Response{OK: true, Result: p.body}
			}
		}
	}

	return s.serve(req, slot, m.serveTimeout)
}

// serve answers a request the cache could not, on the caller, while
// it holds the lane; a miss publishes its render into cache slot slot
// (-1 for none). It is kept out of serveSession so that a warm hit
// does not set up the closure and deferred release: inline, they cost
// a hit about 1 ns.
func (s *Session) serve(req swmproto.Request, slot int, timeout time.Duration) swmproto.Response {
	if !s.acquire(timeout) {
		// The lane is stuck behind a long operation: degrade to a
		// timeout envelope rather than hang the transport.
		return swmproto.Errorf(swmproto.CodeTimeout, "session %d did not serve request %d within %v", s.ID, req.ID, timeout)
	}
	defer func() { <-s.lane }()
	var resp swmproto.Response
	// Execs mutate observable state: they bump gen like every other
	// mutating operation.
	if !s.runHeld(taskWork, req.Op == swmproto.OpExec, func() {
		resp = s.wm.ServeProto(req)
		if slot >= 0 && resp.OK {
			// gen cannot move while the lane is held, so the render
			// is exactly this generation's state.
			s.cache[slot].Store(&queryPayload{gen: s.gen.Load(), body: resp.Result})
		}
	}) {
		// The session stopped or crashed between the state check and
		// its lane turn: the gate skipped the request, or it panicked.
		return swmproto.Errorf(swmproto.CodeSessionDown, "session %d is %s", s.ID, s.State())
	}
	return resp
}

// acquire takes the session's lane for a ServeSession request: at once
// if it is idle, and only a busy lane makes a timer. It reports false
// if the lane stayed busy for the whole timeout.
func (s *Session) acquire(timeout time.Duration) bool {
	select {
	case s.lane <- struct{}{}:
		return true
	default:
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case s.lane <- struct{}{}:
		return true
	case <-timer.C:
		return false
	}
}

// SessionState names session i's lifecycle state for discovery
// listings ("running", "stopped", ...). Out-of-range ids report
// "unknown" rather than panicking — the HTTP transport calls this with
// client-supplied ids.
func (m *Manager) SessionState(i int) string {
	if i < 0 || i >= len(m.sessions) {
		return "unknown"
	}
	return m.sessions[i].State().String()
}

// SessionRegistry returns session i's metrics registry, or nil when
// the session has no live WM (or i is out of range). Unlike WM(), this
// is safe from any goroutine at any time: the pointer is published
// atomically at start/restart and the registry itself is built of
// atomics — it is the scrape-path window into a session.
func (m *Manager) SessionRegistry(i int) *obs.Registry {
	if i < 0 || i >= len(m.sessions) {
		return nil
	}
	return m.sessions[i].reg.Load()
}

// Stats counts session states and copies the fleet counters.
func (m *Manager) Stats() Stats {
	st := Stats{
		Sessions: len(m.sessions),
		Panics:   m.sessionPanics.Value(),
		Restarts: m.sessionRestarts.Value(),
		Started:  m.sessionsStarted.Value(),
	}
	for _, s := range m.sessions {
		switch s.State() {
		case StateRunning:
			st.Live++
		case StateStopped:
			st.Stopped++
		case StateStarting:
			st.Starting++
		case StateFailed:
			st.Failed++
		}
	}
	return st
}
