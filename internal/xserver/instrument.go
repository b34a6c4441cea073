package xserver

import "repro/internal/xproto"

// Instrument observes a connection's request traffic. It is the
// build-once hook the obs layer attaches to: Request fires once per
// request from the gate every request method passes first.
//
// Contract (mirrors SetErrorHandler): callbacks run before the request
// takes any lock, and concurrently from different connections, so an
// Instrument must be safe for concurrent use, must not block, and must
// not issue requests on any connection. obs.ConnInstrument satisfies
// this interface structurally (atomics plus a read-only map) without
// either package importing the other.
type Instrument interface {
	Request(major string, target xproto.XID)
}

// SetInstrument installs (or, with nil, removes) the connection's
// instrument. The instrument rides in the connection's atomic gates
// snapshot, so request paths observe it with a single pointer load.
// Install before issuing requests; swapping instruments mid-flight is
// supported but counts in the old and new instrument will not overlap
// cleanly.
func (c *Conn) SetInstrument(in Instrument) {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	var f *faultState
	if old := c.gates.Load(); old != nil {
		f = old.faults
	}
	c.storeGates(in, f)
}

// RequestMajors lists every request major passed to the connection's
// gate, i.e. every value the Instrument's major parameter can take. obs
// uses it to prebuild one counter per major so the per-request path
// stays allocation-free; the xserver test suite cross-checks it against
// the gate call sites (exactly one per major) so it cannot drift
// silently.
var RequestMajors = []string{
	"ChangeProperty",
	"ChangeSaveSet",
	"ConfigureWindow",
	"CreateWindow",
	"DeleteProperty",
	"DestroyWindow",
	"GetGeometry",
	"GetProperty",
	"GetWindowAttributes",
	"GrabButton",
	"GrabKey",
	"GrabPointer",
	"KillClient",
	"ListProperties",
	"MapWindow",
	"QueryTree",
	"ReparentWindow",
	"SelectInput",
	"SendEvent",
	"SetInputFocus",
	"SetWindowFill",
	"SetWindowLabel",
	"ShapeCombineRectangles",
	"ShapeQuery",
	"ShapeSelectInput",
	"TranslateCoordinates",
	"UnmapWindow",
}
