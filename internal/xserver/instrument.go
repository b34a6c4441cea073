package xserver

import "repro/internal/xproto"

// Instrument observes a connection's request traffic: Request fires
// once per request from the gate every request method passes first.
//
// Contract (mirrors SetErrorHandler): callbacks run before the request
// takes any lock, and concurrently from different connections, so an
// Instrument must be safe for concurrent use, must not block, and must
// not issue requests on any connection. The WM's metrics set
// (internal/core) implements it with atomic adds on counters indexed
// by major.
type Instrument interface {
	Request(major xproto.Major, target xproto.XID)
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
