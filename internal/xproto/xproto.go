// Package xproto defines the core X11 protocol types shared by the
// simulated X server (internal/xserver) and its clients: resource IDs,
// atoms, event types and masks, window attributes, and configuration
// requests. It models the subset of the X protocol that a reparenting
// window manager exercises.
package xproto

import "fmt"

// XID identifies a server-side resource (window, pixmap, ...). The zero
// XID is never a valid resource; None is used where the protocol allows
// "no window".
type XID uint32

// None is the null resource ID.
const None XID = 0

// PointerRoot is the special focus value meaning "focus follows pointer".
const PointerRoot XID = 1

// Atom names a string interned in the server. Predefined atoms occupy
// the low numbers, matching the spirit (not the exact numbering) of X11.
type Atom uint32

// NoAtom is the null atom.
const NoAtom Atom = 0

// Timestamp is a server-issued monotonically increasing event time.
type Timestamp uint64

// CurrentTime asks the server to substitute the current timestamp.
const CurrentTime Timestamp = 0

// EventType discriminates Event values.
type EventType int

// Event types. The names and semantics follow the X11 core protocol,
// plus ShapeNotify from the SHAPE extension.
const (
	KeyPress EventType = iota + 2
	KeyRelease
	ButtonPress
	ButtonRelease
	MotionNotify
	EnterNotify
	LeaveNotify
	FocusIn
	FocusOut
	Expose
	CreateNotify
	DestroyNotify
	UnmapNotify
	MapNotify
	MapRequest
	ReparentNotify
	ConfigureNotify
	ConfigureRequest
	GravityNotify
	CirculateNotify
	CirculateRequest
	PropertyNotify
	ClientMessage
	ShapeNotify
)

var eventTypeNames = map[EventType]string{
	KeyPress:         "KeyPress",
	KeyRelease:       "KeyRelease",
	ButtonPress:      "ButtonPress",
	ButtonRelease:    "ButtonRelease",
	MotionNotify:     "MotionNotify",
	EnterNotify:      "EnterNotify",
	LeaveNotify:      "LeaveNotify",
	FocusIn:          "FocusIn",
	FocusOut:         "FocusOut",
	Expose:           "Expose",
	CreateNotify:     "CreateNotify",
	DestroyNotify:    "DestroyNotify",
	UnmapNotify:      "UnmapNotify",
	MapNotify:        "MapNotify",
	MapRequest:       "MapRequest",
	ReparentNotify:   "ReparentNotify",
	ConfigureNotify:  "ConfigureNotify",
	ConfigureRequest: "ConfigureRequest",
	GravityNotify:    "GravityNotify",
	CirculateNotify:  "CirculateNotify",
	CirculateRequest: "CirculateRequest",
	PropertyNotify:   "PropertyNotify",
	ClientMessage:    "ClientMessage",
	ShapeNotify:      "ShapeNotify",
}

func (t EventType) String() string {
	if s, ok := eventTypeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("EventType(%d)", int(t))
}

// EventMask selects which event categories a client receives on a window.
type EventMask uint32

// Event mask bits, mirroring X11.
const (
	NoEventMask            EventMask = 0
	KeyPressMask           EventMask = 1 << 0
	KeyReleaseMask         EventMask = 1 << 1
	ButtonPressMask        EventMask = 1 << 2
	ButtonReleaseMask      EventMask = 1 << 3
	EnterWindowMask        EventMask = 1 << 4
	LeaveWindowMask        EventMask = 1 << 5
	PointerMotionMask      EventMask = 1 << 6
	ExposureMask           EventMask = 1 << 15
	StructureNotifyMask    EventMask = 1 << 17
	ResizeRedirectMask     EventMask = 1 << 18
	SubstructureNotifyMask EventMask = 1 << 19
	// SubstructureRedirectMask is the window-manager mask: MapRequest,
	// ConfigureRequest and CirculateRequest are redirected to the one
	// client selecting it on a window.
	SubstructureRedirectMask EventMask = 1 << 20
	FocusChangeMask          EventMask = 1 << 21
	PropertyChangeMask       EventMask = 1 << 22
)

// Modifier bits for key/button state, mirroring X11.
const (
	ShiftMask   uint16 = 1 << 0
	LockMask    uint16 = 1 << 1
	ControlMask uint16 = 1 << 2
	Mod1Mask    uint16 = 1 << 3 // Meta/Alt
	Mod2Mask    uint16 = 1 << 4
	Mod3Mask    uint16 = 1 << 5
	Mod4Mask    uint16 = 1 << 6
	Mod5Mask    uint16 = 1 << 7
	Button1Mask uint16 = 1 << 8
	Button2Mask uint16 = 1 << 9
	Button3Mask uint16 = 1 << 10
	Button4Mask uint16 = 1 << 11
	Button5Mask uint16 = 1 << 12
	// AnyModifier matches any modifier state in passive grabs.
	AnyModifier uint16 = 1 << 15
)

// Pointer buttons.
const (
	Button1 = 1
	Button2 = 2
	Button3 = 3
	Button4 = 4
	Button5 = 5
	// AnyButton matches any button in passive grabs.
	AnyButton = 0
)

// Window classes.
type WindowClass int

const (
	InputOutput WindowClass = iota
	InputOnly
)

// Stack modes for ConfigureWindow.
type StackMode int

const (
	Above StackMode = iota
	Below
	TopIf
	BottomIf
	Opposite
)

// Configure value mask bits: which fields of a ConfigureRequest are set.
const (
	CWX           uint16 = 1 << 0
	CWY           uint16 = 1 << 1
	CWWidth       uint16 = 1 << 2
	CWHeight      uint16 = 1 << 3
	CWBorderWidth uint16 = 1 << 4
	CWSibling     uint16 = 1 << 5
	CWStackMode   uint16 = 1 << 6
)

// Property change modes.
type PropMode int

const (
	PropModeReplace PropMode = iota
	PropModePrepend
	PropModeAppend
)

// Property notify states.
const (
	PropertyNewValue = 0
	PropertyDeleted  = 1
)

// Map states reported by GetWindowAttributes.
type MapState int

const (
	IsUnmapped MapState = iota
	IsUnviewable
	IsViewable
)

// WindowChanges carries the fields of a ConfigureWindow request; Mask
// says which fields are meaningful.
type WindowChanges struct {
	Mask        uint16
	X, Y        int
	Width       int
	Height      int
	BorderWidth int
	Sibling     XID
	StackMode   StackMode
}

// Event is the single fat event record used for every event type; only
// the fields relevant to Type are meaningful. Using one struct keeps the
// in-memory server simple and allocation-free on the hot dispatch path.
// Like an X11 event it holds no pointers (a keysym is a code, and a
// ClientMessage carries its 20 data bytes inline), so the garbage
// collector never scans the event queues that hold it.
type Event struct {
	Type EventType
	// Window is the event window: the window the event was selected on.
	Window XID
	// Subwindow/Child: source child for pointer events, child window for
	// requests (MapRequest's window, ConfigureRequest's window, ...).
	Subwindow XID
	// Parent for Create/Reparent/Map/Unmap/Configure request events.
	Parent XID
	// Root of the screen the event occurred on.
	Root XID
	Time Timestamp

	// Pointer events.
	X, Y         int // event-window-relative
	RootX, RootY int
	Button       int
	Keysym       Keysym
	State        uint16 // modifier+button state

	// Geometry (Configure*, Create, Expose, Gravity).
	GX, GY        int
	Width, Height int
	BorderWidth   int
	Sibling       XID
	StackMode     StackMode
	ValueMask     uint16

	// Property events.
	Atom          Atom
	PropertyState int

	// ReparentNotify / Map / Unmap.
	OverrideRedirect bool
	FromConfigure    bool

	// ClientMessage payload: Format (8, 16 or 32) says how Data is
	// read.
	MessageType Atom
	Format      int
	Data        [20]byte

	// SendEvent is true for events generated via SendEvent (synthetic).
	SendEvent bool

	// Shaped reports the new shaped state on ShapeNotify.
	Shaped bool
}

// Rect is an axis-aligned rectangle. X and Y are the top-left corner.
type Rect struct {
	X, Y, Width, Height int
}

// Contains reports whether the point (px, py) falls inside r.
func (r Rect) Contains(px, py int) bool {
	return px >= r.X && py >= r.Y && px < r.X+r.Width && py < r.Y+r.Height
}

// Intersect returns the intersection of r and o, and whether it is
// non-empty.
func (r Rect) Intersect(o Rect) (Rect, bool) {
	x1 := max(r.X, o.X)
	y1 := max(r.Y, o.Y)
	x2 := min(r.X+r.Width, o.X+o.Width)
	y2 := min(r.Y+r.Height, o.Y+o.Height)
	if x2 <= x1 || y2 <= y1 {
		return Rect{}, false
	}
	return Rect{X: x1, Y: y1, Width: x2 - x1, Height: y2 - y1}, true
}

// Empty reports whether the rectangle has no area.
func (r Rect) Empty() bool { return r.Width <= 0 || r.Height <= 0 }

func (r Rect) String() string {
	return fmt.Sprintf("%dx%d%+d%+d", r.Width, r.Height, r.X, r.Y)
}

// WMState values stored in the ICCCM WM_STATE property.
const (
	WithdrawnState = 0
	NormalState    = 1
	IconicState    = 3
)

// Predefined atom names interned by every server at startup. Clients may
// intern further atoms at runtime.
var PredefinedAtoms = []string{
	"PRIMARY", "SECONDARY", "WM_NAME", "WM_ICON_NAME", "WM_CLASS",
	"WM_NORMAL_HINTS", "WM_HINTS", "WM_COMMAND", "WM_CLIENT_MACHINE",
	"WM_STATE", "WM_TRANSIENT_FOR", "WM_PROTOCOLS", "WM_DELETE_WINDOW",
	"WM_TAKE_FOCUS", "STRING", "ATOM", "WINDOW", "CARDINAL", "INTEGER",
	"SWM_ROOT", "SWM_COMMAND", "SWM_HINTS", "SWM_STICKY",
}
