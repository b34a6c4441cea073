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
//   - All WM work runs as tasks on a session's scheduler lane, drained
//     by a bounded worker pool, not a goroutine per session. A
//     session's tasks are FIFO and never run concurrently with each
//     other (the session is enqueued at most once, and only the
//     goroutine that set its queued flag drains it), which is what
//     makes lock-free core.WM safe to drive here. A ServeSession
//     request that finds its lane idle is that goroutine: the caller
//     runs its own task and hands any later arrivals to the pool, so
//     an exec or a cache miss costs no goroutine handoff.
//   - Tasks run isolated: a panic marks that one session Failed,
//     increments fleet.session_panics, and the worker moves on. A
//     crashing session degrades; it never takes down the fleet. A
//     Failed session can be recovered with Restart.
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

// taskKind gates which tasks a session in a given state will run: a
// Failed session executes only recovery tasks (restart, stop), a
// Stopped session only a start. Everything else is silently skipped —
// a pump posted to a session that crashed a moment earlier is not an
// error, it is the fleet degrading by one session.
type taskKind int

const (
	taskStart taskKind = iota
	taskWork           // pump, exec — requires Running
	taskRestart
	taskStop
)

// task is one entry in a session's FIFO: posted work (fn) or a
// ServeSession request (call), never both.
type task struct {
	kind taskKind
	fn   func()
	call *serveCall
}

// serveCall is one ServeSession request on its session's lane. The
// caller that finds the lane idle runs it itself and reads resp back
// directly; on a busy lane done is made inside the append's critical
// section, before any drainer can pop the task, and the drainer
// signals it. ran is false when the state gate skipped the task or it
// panicked. The drainer writes resp and ran before it signals, and the
// caller reads them only after the task has run on its own goroutine
// or after receiving from done.
type serveCall struct {
	req  swmproto.Request
	slot int    // cache slot to publish a miss into, -1 for none
	gen  uint64 // generation read before the render (see postMutate)
	resp swmproto.Response
	ran  bool
	done chan struct{}
}

// run serves the request against the session's WM. A cache miss is
// published under the generation read before the render, so the
// caller's next read hits.
func (c *serveCall) run(s *Session) {
	c.resp = s.wm.ServeProto(c.req)
	if c.slot >= 0 && c.resp.OK {
		s.cache[c.slot].Store(&queryPayload{gen: c.gen, body: c.resp.Result})
	}
}

// Config configures a Manager.
type Config struct {
	// Sessions is the number of sessions to create (required).
	Sessions int
	// Workers bounds the scheduler pool; default min(GOMAXPROCS, 8).
	Workers int
	// DB is the shared resource database; nil loads the built-in
	// default template once for the whole fleet.
	DB *xrdb.DB
	// Log receives fleet diagnostics (panics, start failures); nil
	// discards them.
	Log io.Writer
	// ServeTimeout bounds how long ServeSession waits for a busy
	// session lane to reach a protocol request (default 5s): a lane
	// stuck behind a long task answers with a timeout envelope instead
	// of hanging the caller. A request that finds its lane idle runs
	// on the caller and never waits.
	ServeTimeout time.Duration
}

// Manager owns a fleet of sessions and the scheduler that drives them.
type Manager struct {
	cfg Config
	db  *xrdb.DB

	reg             *obs.Registry
	sessionsLive    *obs.Gauge
	queueDepth      *obs.Gauge
	sessionPanics   *obs.Counter
	sessionRestarts *obs.Counter
	sessionsStarted *obs.Counter
	sessionsStopped *obs.Counter

	queue     chan *Session
	workersWG sync.WaitGroup
	tasksWG   sync.WaitGroup

	// mu guards closed. The sessions slice is immutable after New.
	mu       sync.Mutex
	closed   bool
	sessions []*Session
}

// Session is one display+WM pair. Its WM state is owned by the
// scheduler lane: at most one goroutine (a worker, or a ServeSession
// caller that found the lane idle) drains a session's task queue at
// any moment, so tasks see the WM exactly as a single event-loop
// goroutine would.
type Session struct {
	ID  int
	mgr *Manager

	// server is created at fleet construction and survives restarts
	// (that is what makes restart-adopt meaningful: the clients live in
	// the server across the WM generation change).
	server *xserver.Server

	state atomic.Int32

	// mu guards tasks, head and queued. tasks[head:] are pending, in
	// FIFO order; the slots before head have run and been cleared.
	mu     sync.Mutex
	tasks  []task
	head   int
	queued bool

	// wm is owned by the session's scheduler lane; outside a task it
	// may only be read through a Drain barrier (see WM).
	wm *core.WM

	// reg mirrors wm.Metrics() behind an atomic pointer so scrape
	// paths (the /metrics exporter) can read a session's registry from
	// any goroutine without a lane turn: the registry itself is
	// internally synchronized, only the WM pointer is lane-owned.
	reg atomic.Pointer[obs.Registry]

	// gen counts observable-state generations: every mutating post
	// (start, stop, restart, pump, exec) bumps it inside the FIFO
	// append's critical section — see postMutate for why the two must
	// be atomic together. Queries read it lock-free to validate cache.
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

// New creates a fleet: the shared database and prototype cache, the
// session set (each with its own server, all Stopped), and the worker
// pool. Call StartAll (or Start) to bring sessions up, and Close to
// tear the fleet down.
func New(cfg Config) (*Manager, error) {
	if cfg.Sessions <= 0 {
		return nil, fmt.Errorf("fleet: Sessions must be positive, got %d", cfg.Sessions)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
		if cfg.Workers > 8 {
			cfg.Workers = 8
		}
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
		cfg:   cfg,
		db:    db,
		reg:   obs.NewRegistry(),
		queue: make(chan *Session, cfg.Sessions),
	}
	m.sessionsLive = m.reg.Gauge("fleet.sessions_live")
	m.queueDepth = m.reg.Gauge("fleet.queue_depth")
	m.sessionPanics = m.reg.Counter("fleet.session_panics")
	m.sessionRestarts = m.reg.Counter("fleet.session_restarts")
	m.sessionsStarted = m.reg.Counter("fleet.sessions_started")
	m.sessionsStopped = m.reg.Counter("fleet.sessions_stopped")

	for i := 0; i < cfg.Sessions; i++ {
		m.sessions = append(m.sessions, &Session{
			ID:     i,
			mgr:    m,
			server: xserver.NewServer(),
		})
	}
	for i := 0; i < cfg.Workers; i++ {
		m.workersWG.Add(1)
		go m.worker()
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

// post appends a task to the session's FIFO and enqueues the session
// with the scheduler if it is not already waiting. It reports false if
// the fleet is closed (the task is dropped).
func (s *Session) post(k taskKind, fn func()) bool {
	posted, _ := s.enqueue(task{kind: k, fn: fn}, false)
	return posted
}

// postMutate is post for tasks that may change observable session
// state (start, stop, restart, pump, exec): it bumps the generation
// counter inside the same critical section that appends the task.
//
// The bump MUST share the append's critical section — it is what makes
// the query cache's staleness argument airtight. gen never decreases,
// and a mutation's bump becomes visible no later than its FIFO entry:
// a query that reads generation g and later finds a payload tagged g
// can conclude no mutation was enqueued after the tag was taken, so
// the payload renders exactly generation-g state. If the bump happened
// outside the lock, a query could read g+1, append its render ahead of
// the mutation's append, and publish pre-mutation bytes tagged g+1 —
// stale bytes served as current.
func (s *Session) postMutate(k taskKind, fn func()) bool {
	posted, _ := s.enqueue(task{kind: k, fn: fn}, true)
	return posted
}

// enqueue appends t to the session's FIFO, bumping the generation
// first when mutate is set. posted is false if the fleet is closed
// (the task is dropped). If the lane was idle, posted work puts the
// session on the scheduler queue; a ServeSession call instead claims
// the lane for the caller (owned), which must then run it with
// drainSession(s, true).
func (s *Session) enqueue(t task, mutate bool) (posted, owned bool) {
	m := s.mgr
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return false, false
	}
	m.tasksWG.Add(1)
	s.mu.Lock()
	if mutate {
		s.gen.Add(1)
	}
	if len(s.tasks) == cap(s.tasks) && s.head > len(s.tasks)/2 {
		// Mostly run slots: slide the pending tasks down over them
		// rather than growing the queue.
		n := copy(s.tasks, s.tasks[s.head:])
		clear(s.tasks[n:])
		s.tasks, s.head = s.tasks[:n], 0
	}
	s.tasks = append(s.tasks, t)
	already := s.queued
	s.queued = true
	owned = !already && t.call != nil
	if already && t.call != nil {
		// Buffered so the drainer's send cannot block if the caller
		// timed out and walked away.
		t.call.done = make(chan struct{}, 1)
	}
	s.mu.Unlock()
	if !already && !owned {
		m.push(s)
	}
	m.mu.Unlock()
	return true, owned
}

// push hands a session whose lane is claimed (queued set) to the
// worker pool. The caller holds m.mu and has checked m.closed. It
// never blocks: the queue holds every session once, and the queued
// flag guarantees at-most-once membership.
func (m *Manager) push(s *Session) {
	m.queue <- s
	m.queueDepth.Set(int64(len(m.queue)))
}

func (m *Manager) worker() {
	defer m.workersWG.Done()
	for s := range m.queue {
		m.queueDepth.Set(int64(len(m.queue)))
		m.drainSession(s, false)
	}
}

// drainSession runs the session's queued tasks in FIFO order. Only the
// goroutine that set the session's queued flag runs this, which
// serializes all of a session's tasks. A worker (caller false) drains
// to exhaustion. A ServeSession caller that claimed an idle lane
// (caller true) runs only the first task, its own, and then hands any
// tasks that arrived meanwhile to the pool: a caller never runs
// another request's work.
func (m *Manager) drainSession(s *Session, caller bool) {
	for ran := false; ; ran = true {
		s.mu.Lock()
		if s.head == len(s.tasks) {
			s.tasks, s.head = s.tasks[:0], 0
			s.queued = false
			s.mu.Unlock()
			return
		}
		if caller && ran {
			s.mu.Unlock()
			m.mu.Lock()
			if !m.closed {
				m.push(s)
				m.mu.Unlock()
				return
			}
			m.mu.Unlock()
			// Close raced this request and the pool is gone: the
			// tasks posted before it closed still have to run.
			caller = false
			continue
		}
		// Pop without shifting the rest; clearing the slot lets the
		// task's closure be collected once it has run.
		t := s.tasks[s.head]
		s.tasks[s.head] = task{}
		s.head++
		s.mu.Unlock()
		ok := s.admits(t.kind) && m.runIsolated(s, t)
		if t.call != nil {
			t.call.ran = ok
			if t.call.done != nil {
				t.call.done <- struct{}{}
			}
		}
		m.tasksWG.Done()
	}
}

// admits applies the state gate: see taskKind.
func (s *Session) admits(k taskKind) bool {
	switch State(s.state.Load()) {
	case StateStopped:
		return k == taskStart
	case StateStarting:
		return k == taskStart
	case StateRunning:
		return k == taskWork || k == taskRestart || k == taskStop
	case StateFailed:
		return k == taskRestart || k == taskStop
	}
	return false
}

// runIsolated executes one task with panic isolation: a panic marks the
// session Failed and is accounted, never propagated. The deferred
// recover is the fleet's blast wall. It reports whether the task ran
// to completion.
func (m *Manager) runIsolated(s *Session, t task) (ok bool) {
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
	if t.call != nil {
		t.call.run(s)
	} else {
		t.fn()
	}
	return true
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
// for scrapes. It runs on the session's lane.
func (s *Session) install(wm *core.WM) {
	s.wm = wm
	s.reg.Store(wm.Metrics())
}

// Start brings session i up. No-op unless the session is Stopped.
func (m *Manager) Start(i int) {
	s := m.sessions[i]
	s.state.CompareAndSwap(int32(StateStopped), int32(StateStarting))
	s.postMutate(taskStart, func() {
		if State(s.state.Load()) != StateStarting {
			return
		}
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
	s.postMutate(taskStop, func() {
		if s.wm != nil {
			s.wm.Close()
			s.wm = nil
		}
		s.reg.Store(nil)
		prev := State(s.state.Swap(int32(StateStopped)))
		if prev == StateRunning {
			m.sessionsStopped.Inc()
		}
		m.sessionsLive.Set(m.liveCount())
	})
}

// Restart replays the paper's f.restart inside session i: the old WM
// shuts down (clients reparent to the root, mapped), a fresh WM starts
// on the same server and adopts them. It is also the recovery path for
// a Failed session.
func (m *Manager) Restart(i int) {
	s := m.sessions[i]
	s.postMutate(taskRestart, func() {
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

// Pump posts one event-pump cycle to session i.
func (m *Manager) Pump(i int) {
	s := m.sessions[i]
	s.postMutate(taskWork, func() { s.wm.Pump() })
}

// Exec posts fn to run on session i's scheduler lane with the session's
// WM — the fleet equivalent of being on the event-loop goroutine. fn
// must not retain the WM past its return.
func (m *Manager) Exec(i int, fn func(*core.WM)) {
	s := m.sessions[i]
	s.postMutate(taskWork, func() { fn(s.wm) })
}

// StartAll starts every session.
func (m *Manager) StartAll() {
	for i := range m.sessions {
		m.Start(i)
	}
}

// StopAll stops every session.
func (m *Manager) StopAll() {
	for i := range m.sessions {
		m.Stop(i)
	}
}

// PumpAll posts a pump to every session.
func (m *Manager) PumpAll() {
	for i := range m.sessions {
		m.Pump(i)
	}
}

// Drain blocks until every task posted so far has run (or been skipped
// by its state gate). It is the synchronization barrier that makes
// Session.WM and fleet stats safe to read from the caller's goroutine.
func (m *Manager) Drain() {
	m.tasksWG.Wait()
}

// Close stops every session, waits for the work to finish, and shuts
// the scheduler down. The Manager is unusable afterwards; posts to a
// closed fleet are dropped.
func (m *Manager) Close() {
	m.StopAll()
	m.Drain()
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	close(m.queue)
	m.workersWG.Wait()
}

// Server returns the session's display server. The server is created
// at fleet construction and never replaced, so this is safe from any
// goroutine; the server itself is internally synchronized.
func (s *Session) Server() *xserver.Server { return s.server }

// State returns the session's lifecycle state.
func (s *Session) State() State { return State(s.state.Load()) }

// Panics reports how many tasks this session lost to panics.
func (s *Session) Panics() int64 { return s.panics.Load() }

// Restarts reports how many restart-adopt cycles this session ran.
func (s *Session) Restarts() int64 { return s.restarts.Load() }

// WM returns the session's window manager. It is owned by the
// scheduler lane: only read it between Drain and the next post (tests
// and stat collectors), or from inside Exec. It is nil unless the
// session is Running or Failed-with-a-live-WM.
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

	QueueDepth int64
}

// The Manager is the fleet-shaped implementation of the protocol's
// session-addressed handler seam: transports route requests here and
// the Manager runs them on the addressed session's lane.
var _ swmproto.SessionHandler = (*Manager)(nil)

// ServeSession serves one protocol request against session id. A warm
// cacheable query is answered from the session's snapshot cache;
// anything else is appended to the session's scheduler lane — the same
// FIFO and serialization a Pump gets, which is what makes the
// lane-owned WM safe to query. If the lane is idle the caller drains
// it for that one task on its own goroutine; if it is busy the caller
// waits up to Config.ServeTimeout for a worker to reach the task. All
// failure modes come back as protocol envelopes (unknown_session,
// session_down, timeout), never as Go errors: the envelope is the
// transport contract, and HTTP status / exit codes derive from the
// code. A request the state gate skipped, or whose task panicked,
// answers session_down as soon as its lane turn comes. Safe to call
// from any goroutine; concurrent requests against one session
// serialize on its lane, requests against different sessions run in
// parallel.
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
	// see postMutate for the ordering argument.
	slot := -1
	var gen uint64
	if req.Op == swmproto.OpQuery && req.Screen == 0 {
		if slot = cacheSlot(req.Target); slot >= 0 {
			gen = s.gen.Load()
			if p := s.cache[slot].Load(); p != nil && p.gen == gen {
				return swmproto.Response{OK: true, Result: p.body}
			}
		}
	}

	return m.serveOnLane(s, &serveCall{req: req, slot: slot, gen: gen})
}

// serveOnLane appends c to the session's lane and answers it: on an
// idle lane by running it on the calling goroutine, on a busy lane by
// waiting for the drainer's signal, up to the serve timeout.
func (m *Manager) serveOnLane(s *Session, c *serveCall) swmproto.Response {
	// Execs mutate observable state; their append must invalidate the
	// cache like every other mutating task.
	posted, owned := s.enqueue(task{kind: taskWork, call: c}, c.req.Op == swmproto.OpExec)
	if !posted {
		return swmproto.Errorf(swmproto.CodeSessionDown, "fleet is closed")
	}
	if owned {
		m.drainSession(s, true)
	} else {
		timeout := m.cfg.ServeTimeout
		if timeout <= 0 {
			timeout = 5 * time.Second
		}
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		select {
		case <-c.done:
		case <-timer.C:
			// The lane is stuck behind a long task: degrade to a
			// timeout envelope rather than hang the transport.
			return swmproto.Errorf(swmproto.CodeTimeout, "session %d did not serve request %d within %v", s.ID, c.req.ID, timeout)
		}
	}
	if !c.ran {
		// The session stopped or crashed between the state check and
		// its lane turn: the gate skipped the task, or it panicked.
		return swmproto.Errorf(swmproto.CodeSessionDown, "session %d is %s", s.ID, s.State())
	}
	return c.resp
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
		Sessions:   len(m.sessions),
		Panics:     m.sessionPanics.Value(),
		Restarts:   m.sessionRestarts.Value(),
		Started:    m.sessionsStarted.Value(),
		QueueDepth: m.queueDepth.Value(),
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
