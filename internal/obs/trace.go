package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// EventKind classifies a trace entry.
type EventKind uint8

const (
	// KindRequest is an X protocol request issued by the WM.
	KindRequest EventKind = iota
	// KindEvent is an X event delivered to the WM's pump.
	KindEvent
	// KindManage records a window being adopted.
	KindManage
	// KindUnmanage records a window being released.
	KindUnmanage
	// KindPan records a virtual-desktop pan.
	KindPan
	// KindDegrade records a degradation event (a failed X operation
	// the WM survived).
	KindDegrade

	numKinds
)

var kindNames = [numKinds]string{
	KindRequest:  "request",
	KindEvent:    "event",
	KindManage:   "manage",
	KindUnmanage: "unmanage",
	KindPan:      "pan",
	KindDegrade:  "degrade",
}

// String returns the kind's wire name.
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON encodes the kind as its wire name.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON decodes a wire name back into a kind, so swmproto
// clients can round-trip trace snapshots.
func (k *EventKind) UnmarshalJSON(data []byte) error {
	if len(data) < 2 || data[0] != '"' || data[len(data)-1] != '"' {
		return fmt.Errorf("obs: bad event kind %s", data)
	}
	name := string(data[1 : len(data)-1])
	for i, n := range kindNames {
		if n == name {
			*k = EventKind(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event kind %q", name)
}

// Entry is one trace record. All fields are fixed-size; Op must be a
// static (compile-time) string so recording never allocates. The
// meaning of Window/Arg1/Arg2 depends on Kind:
//
//	request:  Window = target XID
//	event:    Window = event window, Arg1 = event type code
//	manage:   Window = client window
//	unmanage: Window = client window
//	pan:      Arg1, Arg2 = new pan origin
//	degrade:  Window = involved window (0 if none)
type Entry struct {
	Seq    uint64    `json:"seq"`
	Time   int64     `json:"time_ns"` // unix nanoseconds
	Kind   EventKind `json:"kind"`
	Op     string    `json:"op"`
	Window uint32    `json:"window,omitempty"`
	Arg1   int64     `json:"arg1,omitempty"`
	Arg2   int64     `json:"arg2,omitempty"`
}

// Trace is a fixed-size ring buffer of Entry records. When disabled
// (the default), Record is a single atomic load and returns — zero
// allocations, no lock. When enabled, Record takes a short mutex to
// claim a slot and copy the fixed-size entry in; it still never
// allocates. Safe for concurrent writers; may be called with the X
// server's lock held (it acquires only its own leaf mutex and issues
// no requests).
type Trace struct {
	enabled atomic.Bool
	mu      sync.Mutex
	ring    []Entry
	seq     uint64 // total records ever written; next slot is seq % len(ring)
}

// NewTrace returns a trace with capacity for n entries (minimum 1).
func NewTrace(n int) *Trace {
	if n < 1 {
		n = 1
	}
	return &Trace{ring: make([]Entry, n)}
}

// Enable turns recording on.
func (t *Trace) Enable() { t.enabled.Store(true) }

// Enabled reports whether recording is on.
func (t *Trace) Enabled() bool { return t.enabled.Load() }

// Cap returns the ring capacity.
func (t *Trace) Cap() int { return len(t.ring) }

// Len returns the number of entries currently buffered (≤ Cap).
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.seq < uint64(len(t.ring)) {
		return int(t.seq)
	}
	return len(t.ring)
}

// Record appends an entry, overwriting the oldest once the ring is
// full. op must be a static string (the entry retains it). No-op when
// the trace is disabled.
func (t *Trace) Record(kind EventKind, op string, window uint32, arg1, arg2 int64) {
	if !t.enabled.Load() {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	e := &t.ring[t.seq%uint64(len(t.ring))]
	t.seq++
	e.Seq = t.seq // 1-based: Seq is "records ever written" at this entry
	e.Time = now
	e.Kind = kind
	e.Op = op
	e.Window = window
	e.Arg1 = arg1
	e.Arg2 = arg2
	t.mu.Unlock()
}

// Snapshot copies the buffered entries, oldest first.
func (t *Trace) Snapshot() []Entry {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := uint64(len(t.ring))
	if t.seq < n {
		out := make([]Entry, t.seq)
		copy(out, t.ring[:t.seq])
		return out
	}
	out := make([]Entry, n)
	start := t.seq % n
	copy(out, t.ring[start:])
	copy(out[n-start:], t.ring[:start])
	return out
}
