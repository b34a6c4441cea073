// Package xserver implements an in-memory model of an X11 server
// sufficient to host a reparenting window manager and its clients: a
// window tree with stacking order, properties and atoms, event masks and
// delivery (including SubstructureRedirect), reparenting with save-sets,
// passive button and key grabs and active pointer grabs, pointer,
// button, key and crossing events, synthetic events via SendEvent,
// multiple screens, and the SHAPE extension.
//
// The server is a deterministic, single-process model: requests take
// effect immediately and events are appended to per-connection FIFO
// queues. This gives window-manager code the exact protocol surface it
// would see against a real display while keeping tests and benchmarks
// reproducible.
package xserver

import (
	"sync"
	"sync/atomic"

	"repro/internal/xproto"
)

// Server is a simulated X display server. Create one with NewServer and
// attach clients with Connect.
//
// Locking — one writer lock, lock-free readers. The scheme (detailed
// in index.go) is:
//
//   - Window lookups, property/geometry/tree reads (GetProperty,
//     GetGeometry, QueryTree, TranslateCoordinates, ListProperties,
//     GetWindowAttributes, ShapeQuery, QueryPointer, ...) and
//     property/geometry writes (ChangeProperty, DeleteProperty,
//     geometry-only ConfigureWindow) are lock-free: the slot-table
//     index and per-window atomics serve them with no shared mutex.
//   - Structural ops (CreateWindow, Map/UnmapWindow, SelectInput,
//     restacking configures, ReparentWindow, DestroyWindow,
//     ChangeSaveSet, Connect/Close, grabs, focus, SendEvent, shape
//     changes) and Snapshot hold mu, taken through writeLock.
//   - Input injection holds mu and then inputMu, so the tree and the
//     grab table stay still under it and no lock-free configure's
//     pointer recheck interleaves with it.
//
// An installed fault policy or instrument never changes a request's
// lock scope. Event queues are per-connection with their own mutex, so
// delivery stays FIFO per client without a global order.
type Server struct {
	mu      sync.Mutex    // structural writer lock; see above
	inputMu sync.Mutex    // serializes pointer/crossing recomputation; below mu
	nextID  xproto.XID    // next XID allocID hands out; guarded by mu
	now     atomic.Uint64 // advances when an event is generated

	atoms atomic.Pointer[atomTab] // copy-on-write; misses intern under mu

	wins     atomic.Pointer[winTab] // window index; see index.go
	winCount atomic.Int64

	screens []*Screen // immutable after NewServer

	connMu sync.Mutex // guards conns/nextFD for lock-free NumConns; under mu
	conns  map[int]*Conn
	nextFD int

	pointer pointerState
	focus   atomic.Uint32 // XID; PointerRoot when unset

	lockObs atomic.Pointer[LockObserver]

	// passive button and key grabs, established with GrabButton and
	// GrabKey. Guarded by mu.
	grabs []*passiveGrab
	// active pointer grab; conn is nil when there is none. Guarded by
	// mu; input delivery, which starts and ends implicit grabs, also
	// holds inputMu.
	activeGrab activeGrab
}

// Screen describes one head of the display. Root is the root window.
type Screen struct {
	Number     int
	Root       xproto.XID
	Width      int
	Height     int
	Monochrome bool
}

// ScreenSpec configures one screen at server creation.
type ScreenSpec struct {
	Width      int
	Height     int
	Monochrome bool
}

// pointerState is the pointer position and button/crossing state. All
// fields are atomic so hit-testing and recheck fast paths read them
// lock-free; writers additionally hold inputMu so compound updates
// (move + crossing events) stay coherent.
type pointerState struct {
	screen  atomic.Int32
	xy      atomic.Uint64 // packIntPair(x, y), root-relative on the current screen
	state   atomic.Uint32 // button mask (uint16)
	lastWin atomic.Uint32 // window the pointer was last inside (for crossing events)
}

type activeGrab struct {
	conn      *Conn
	window    xproto.XID
	eventMask xproto.EventMask
	// implicit grabs are created automatically between ButtonPress and
	// ButtonRelease delivery, as in real X.
	implicit bool
}

// atomTab is the interned-atom table, published as an immutable
// snapshot: InternAtom hits and AtomName are lock-free; a miss clones
// the table under mu.
type atomTab struct {
	byName map[string]xproto.Atom
	byID   map[xproto.Atom]string
	next   xproto.Atom
}

// predefinedAtoms is the table every server starts from: the protocol's
// predefined atoms, ids 1..len(xproto.PredefinedAtoms) in order. It is
// built once per process and shared, which is safe because an atomTab
// is never written after it is published; a server's first interning
// miss clones it like any other.
var predefinedAtoms = func() *atomTab {
	at := &atomTab{
		byName: make(map[string]xproto.Atom, len(xproto.PredefinedAtoms)),
		byID:   make(map[xproto.Atom]string, len(xproto.PredefinedAtoms)),
		next:   1,
	}
	for _, name := range xproto.PredefinedAtoms {
		a := at.next
		at.next++
		at.byName[name] = a
		at.byID[a] = name
	}
	return at
}()

// NewServer creates a server with the given screens. With no specs, a
// single 1152x900 color screen is created (the Sun-era default that swm
// was developed on).
func NewServer(specs ...ScreenSpec) *Server {
	if len(specs) == 0 {
		specs = []ScreenSpec{{Width: 1152, Height: 900}}
	}
	s := &Server{
		conns:  make(map[int]*Conn),
		nextFD: 1,
		nextID: baseXID,
	}
	s.atoms.Store(predefinedAtoms)
	for i, spec := range specs {
		root := &window{
			id:     s.allocID(),
			class:  xproto.InputOutput,
			isRoot: true,
			screen: int32(i),
		}
		root.setRect(xproto.Rect{Width: spec.Width, Height: spec.Height})
		root.mapped.Store(true)
		s.indexPut(root)
		s.screens = append(s.screens, &Screen{
			Number:     i,
			Root:       root.id,
			Width:      spec.Width,
			Height:     spec.Height,
			Monochrome: spec.Monochrome,
		})
	}
	s.focus.Store(uint32(xproto.PointerRoot))
	return s
}

// Screens returns the screen descriptors. Lock-free: the slice is
// immutable after NewServer.
func (s *Server) Screens() []*Screen {
	out := make([]*Screen, len(s.screens))
	copy(out, s.screens)
	return out
}

// Connect attaches a new client connection. Name is used in diagnostics.
func (s *Server) Connect(name string) *Conn {
	s.writeLock()
	defer s.mu.Unlock()
	c := &Conn{
		server:  s,
		name:    name,
		saveSet: make(map[xproto.XID]bool),
	}
	c.qCond = sync.NewCond(&c.qMu)
	s.connMu.Lock()
	c.fd = s.nextFD
	s.nextFD++
	s.conns[c.fd] = c
	s.connMu.Unlock()
	return c
}

// allocID reserves a fresh XID. Caller holds mu exclusively (or owns
// the server outright, during NewServer).
func (s *Server) allocID() xproto.XID {
	id := s.nextID
	s.nextID++
	return id
}

// tick advances the server timestamp and returns the new value. The
// clock moves only when an event is actually generated, so silent
// requests stay store-free.
func (s *Server) tick() xproto.Timestamp {
	return xproto.Timestamp(s.now.Add(1))
}

// internAtom interns name, lock-free on the hit path. A miss clones the
// atom table under mu, re-checking first: a racing miss may have
// interned the same name.
func (s *Server) internAtom(name string) xproto.Atom {
	if a, ok := s.atoms.Load().byName[name]; ok {
		return a
	}
	s.writeLock()
	defer s.mu.Unlock()
	old := s.atoms.Load()
	if a, ok := old.byName[name]; ok {
		return a
	}
	nt := &atomTab{
		byName: make(map[string]xproto.Atom, len(old.byName)+1),
		byID:   make(map[xproto.Atom]string, len(old.byID)+1),
		next:   old.next + 1,
	}
	for k, v := range old.byName {
		nt.byName[k] = v
	}
	for k, v := range old.byID {
		nt.byID[k] = v
	}
	a := old.next
	nt.byName[name] = a
	nt.byID[a] = name
	s.atoms.Store(nt)
	return a
}

// lookupErr resolves id to a live window or a BadWindow error. It takes
// no lock — the index is safe from any context — and is the doorway
// request impls use so error construction stays in one place.
func (s *Server) lookupErr(id xproto.XID) (*window, error) {
	w := s.lookup(id)
	if w == nil {
		return nil, &xproto.XError{Code: xproto.BadWindow, Resource: id}
	}
	return w, nil
}

// rootOf returns the root window of w's screen.
func (s *Server) rootOf(w *window) *window {
	return s.lookup(s.screens[w.screen].Root)
}

// NumConns reports the number of live client connections (diagnostics).
func (s *Server) NumConns() int {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	return len(s.conns)
}

// NumWindows reports the number of live windows, roots included. Soak
// tests use it to prove the WM leaks no server-side windows. Lock-free.
func (s *Server) NumWindows() int {
	return int(s.winCount.Load())
}

// Now returns the current server timestamp without advancing it.
func (s *Server) Now() xproto.Timestamp {
	return xproto.Timestamp(s.now.Load())
}
