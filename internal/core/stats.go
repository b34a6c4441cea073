package core

import (
	"errors"

	"repro/internal/objects"
	"repro/internal/xproto"
)

// Stats is a snapshot of the WM's core observability counters: events
// dispatched by type, X protocol errors by code (counted centrally in
// the connection error handler, the analogue of XSetErrorHandler),
// clients managed and unmanaged, and death races survived (BadWindow on
// a managed client window answered with a clean unmanage). It is a view
// over the obs registry — the full instrument set, including latency
// histograms and per-op error counts, is wm.Metrics().Snapshot().
type Stats struct {
	Events     map[string]int
	Errors     map[string]int
	Managed    int
	Unmanaged  int
	DeathRaces int

	// Decoration prototype cache traffic (see proto.go): a healthy
	// restart shows Misses ≈ distinct decorations and Hits ≈ clients.
	ProtoHits      int
	ProtoMisses    int
	ProtoEvictions int

	// LockContention counts X server writer-lock acquisitions that
	// missed the uncontended fast path and had to wait
	// (xserver/index.go). Per-wait latency lives in the
	// xserver.lock_wait_ns histogram, reachable via Metrics().Snapshot().
	LockContention int
}

// Stats assembles the snapshot from the obs counters. Every read is an
// atomic load, so this is safe from any goroutine — including
// concurrently with the connection error handler, which runs while the
// server lock is held (the PR 1 map counters needed a mutex for this;
// the obs registry is the single atomically readable source now).
func (wm *WM) Stats() Stats {
	m := wm.metrics
	st := Stats{
		Events:     make(map[string]int),
		Errors:     make(map[string]int),
		Managed:    int(m.managed.Value()),
		Unmanaged:  int(m.unmanaged.Value()),
		DeathRaces: int(m.deathRaces.Value()),

		ProtoHits:      int(m.protoHits.Value()),
		ProtoMisses:    int(m.protoMisses.Value()),
		ProtoEvictions: int(m.protoEvictions.Value()),

		LockContention: int(m.lockContention.Value()),
	}
	for t := xproto.KeyPress; t <= xproto.ShapeNotify; t++ {
		if n := m.events[t].Value(); n > 0 {
			st.Events[t.String()] = int(n)
		}
	}
	for code := xproto.ErrorCode(0); int(code) < numErrorSlots; code++ {
		if c := m.errsByCode[code]; c != nil {
			if n := c.Value(); n > 0 {
				st.Errors[code.String()] = int(n)
			}
		}
	}
	return st
}

// deadWindow reports whether err is a BadWindow naming win itself — the
// only failure that can mean the window is really gone. A BadWindow on
// any other resource (a frame child, the desktop) is just a failed
// request and is always worth retrying.
func deadWindow(win xproto.XID, err error) bool {
	var xe *xproto.XError
	return errors.As(err, &xe) && xe.Code == xproto.BadWindow && xe.Resource == win
}

// confirmDead reports whether err means win is really gone: a BadWindow
// naming win itself, corroborated by an independent probe. A lone
// BadWindow may be spurious (fault injection, server hiccup), so manage
// paths only abandon a window after the probe agrees; post-manage the
// unmanage path needs no probe because its rescue reparent already
// preserves a window that turns out to be alive.
func (wm *WM) confirmDead(win xproto.XID, err error) bool {
	if !deadWindow(win, err) {
		return false
	}
	_, gerr := wm.conn.GetGeometry(win)
	return gerr != nil && errors.Is(gerr, xproto.ErrBadWindow)
}

// check classifies an X protocol error from a request made on behalf of
// client c (nil when no client is involved). A BadWindow naming the
// client's own window, corroborated by a probe, means the client
// destroyed it between the event that named it and our request — the
// asynchronous death race — so the client is cleanly unmanaged. An
// uncorroborated BadWindow is treated as spurious (fault injection,
// server hiccup) and survived: unmanaging a live client on one bad
// reply would tear down a healthy window. Everything else is logged and
// survived; per-code counting happens in the connection-level error
// handler installed by New, and every survived failure is additionally
// noted in the shared degrade ledger (the single doorway that feeds
// Degraded()/LastError() and the obs trace). It reports whether the
// caller may keep operating on the client (false once the client
// window is gone).
func (wm *WM) check(c *Client, op string, err error) bool {
	if err == nil {
		return true
	}
	wm.logf("%s: %v", op, err)
	var win uint32
	if c != nil {
		win = uint32(c.Win)
	}
	wm.deg.Note(op, win, err)
	if c != nil && deadWindow(c.Win, err) {
		if _, managed := wm.clients[c.Win]; managed {
			if !wm.confirmDead(c.Win, err) {
				// The window is demonstrably alive; the failed request
				// is lost but the client keeps working.
				return true
			}
			wm.noteDeathRace()
			wm.unmanageDead(c)
		}
		return false
	}
	return true
}

// unmanageDead tears down a client whose window the server reports
// destroyed. The report can be spurious (fault injection, XID reuse),
// so a rescue reparent to the root is attempted first: a window that is
// in fact alive survives outside the frame about to be destroyed; a
// truly dead one fails the reparent harmlessly.
func (wm *WM) unmanageDead(c *Client) {
	rx, ry := wm.clientRootPos(c)
	if err := wm.conn.ReparentWindow(c.Win, c.scr.Root, rx, ry); err == nil {
		wm.check(nil, "rescue save-set", wm.conn.ChangeSaveSet(c.Win, false))
	}
	wm.Unmanage(c, true)
}

// destroyWindow destroys a single WM-owned window, queueing it for the
// orphan janitor if the request fails.
func (wm *WM) destroyWindow(id xproto.XID) {
	if id == xproto.None {
		return
	}
	if err := wm.conn.DestroyWindow(id); err != nil {
		wm.addOrphan(id)
		wm.logf("destroy 0x%x: %v (queued for retry)", uint32(id), err)
	}
}

// destroyTree tears down a realized object tree (frame or icon),
// queueing the root window for the janitor when the destroy fails so a
// single transient error cannot leak a whole server-side subtree.
func (wm *WM) destroyTree(tree *objects.Object) {
	if tree == nil || tree.Window == xproto.None {
		return
	}
	id := tree.Window
	if err := objects.Destroy(wm.conn, tree); err != nil {
		wm.addOrphan(id)
		wm.logf("destroy tree 0x%x: %v (queued for retry)", uint32(id), err)
	}
}

func (wm *WM) addOrphan(id xproto.XID) {
	if id != xproto.None {
		wm.orphans = append(wm.orphans, id)
	}
}

// sweepOrphans retries destruction of windows whose DestroyWindow
// failed earlier. An orphan is only dropped once its death is certain:
// either the destroy succeeds, or a BadWindow is confirmed by a second
// independent request (a lone BadWindow may itself be injected).
func (wm *WM) sweepOrphans() {
	if len(wm.orphans) == 0 {
		return
	}
	pending := wm.orphans
	wm.orphans = nil
	for _, id := range pending {
		err := wm.conn.DestroyWindow(id)
		if err == nil {
			continue
		}
		if errors.Is(err, xproto.ErrBadWindow) {
			if _, gerr := wm.conn.GetGeometry(id); gerr != nil && errors.Is(gerr, xproto.ErrBadWindow) {
				continue
			}
		}
		wm.orphans = append(wm.orphans, id)
	}
}
