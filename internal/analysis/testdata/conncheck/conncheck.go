// Package conncheck is the golden fixture for the conncheck analyzer:
// every form of discarded X request error is a finding, while handled,
// routed, propagated, and waived calls are clean.
package conncheck

import (
	"repro/internal/icccm"
	"repro/internal/xproto"
	"repro/internal/xserver"
)

// bad discards request errors in each flagged form.
func bad(c *xserver.Conn, win xproto.XID) {
	c.MapWindow(win)         // want "discarded error from .*MapWindow"
	_ = c.RaiseWindow(win)   // want "discarded error from .*RaiseWindow"
	defer c.UnmapWindow(win) // want "discarded error from .*UnmapWindow"
	go c.LowerWindow(win)    // want "discarded error from .*LowerWindow"

	g, _ := c.GetGeometry(win) // want "discarded error from .*GetGeometry"
	_ = g

	icccm.SetState(c, win, icccm.State{State: xproto.NormalState}) // want "discarded error from icccm.SetState"
}

// good handles, routes, or propagates every request error.
func good(c *xserver.Conn, win xproto.XID) error {
	if err := c.MapWindow(win); err != nil {
		return err
	}
	check("raise", c.RaiseWindow(win))
	return c.LowerWindow(win)
}

// check is the routing pattern conncheck recognizes by construction:
// the request call is an argument, not a statement.
func check(op string, err error) bool {
	_ = op
	return err == nil
}

// waived fires and forgets under an explicit reason.
func waived(c *xserver.Conn, win xproto.XID) {
	c.UnmapWindow(win) //swm:ok fixture: unmapping a dying window is best-effort
}

// instrument mirrors an obs recording hook: no error return, nothing
// to discard.
type instrument interface {
	Request(major xproto.Major)
}

// instrumented mirrors the observability instrument points: recording
// calls return nothing, so bracketing a properly handled request with
// them must add no findings.
func instrumented(c *xserver.Conn, win xproto.XID, in instrument) error {
	if in != nil {
		in.Request(xproto.MajorMapWindow)
	}
	err := c.MapWindow(win)
	check("map", err)
	return err
}

// serveReply mirrors the property transport's reply write: the
// ChangeProperty that acknowledges a swmproto request. Dropping its
// error loses the reply silently — the client polls forever — so the
// discard is a finding even though the call "is just a property write".
func serveReply(c *xserver.Conn, win xproto.XID, payload []byte) {
	c.ChangeProperty(win, c.InternAtom("SWM_REPLY"), c.InternAtom("STRING"), 8, xproto.PropModeReplace, payload) // want "discarded error from .*ChangeProperty"
}

// serveReplyRouted is the clean transport shape: the reply write's
// error is routed into a degrade counter, as core.sendReply does.
func serveReplyRouted(c *xserver.Conn, win xproto.XID, payload []byte) {
	check("write SWM_REPLY", c.ChangeProperty(win, c.InternAtom("SWM_REPLY"),
		c.InternAtom("STRING"), 8, xproto.PropModeReplace, payload))
}

// typedGetter exercises the icccm accessor contract: the (value, ok,
// error) triple is clean when the error is routed, a finding when the
// blank identifier swallows it.
func typedGetter(c *xserver.Conn, win xproto.XID) string {
	name, ok, err := icccm.GetName(c, win)
	check("read WM_NAME", err)
	if !ok {
		return ""
	}
	return name
}

// sessionResize mirrors Manage's session-hint resize with its check
// dropped: the blank discard builds, vets and passes every test, and
// loses the death-race handling and degrade count that check provides.
func sessionResize(c *xserver.Conn, win xproto.XID, w, h int) {
	_ = c.ResizeWindow(win, w, h) // want "discarded error from .*ResizeWindow"
}
