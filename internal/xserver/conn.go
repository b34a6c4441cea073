package xserver

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/xproto"
)

// Conn is a client connection to the simulated server. All request
// methods are safe for concurrent use; events are read with WaitEvent,
// PollEvent or Pending.
//
// Requests route per the scheme in index.go: window-local reads and
// property/geometry writes are lock-free, structural ops and connection
// lifecycle hold the server lock exclusively. Each request has one
// body, and that body passes the connection's gate (see gate) before
// it takes any lock, so an installed instrument or fault policy never
// changes a request's lock scope.
type Conn struct {
	server *Server
	fd     int
	name   string

	// Event queue. qMu/qCond are leaf locks: nothing else is acquired
	// while they are held, and delivery from any request context only
	// touches them — which is what keeps delivery FIFO per connection
	// without a global event order. queue is the pending buffer; qhead
	// indexes the next event to pop (pops advance the head so the
	// buffer is reused once it drains, instead of the append tail
	// growing forever).
	qMu    sync.Mutex
	qCond  *sync.Cond
	queue  []xproto.Event
	qhead  int
	closed atomic.Bool

	// saveSet is guarded by the server's exclusive lock (it is only
	// touched by ChangeSaveSet, destroy sweeps and Close).
	saveSet map[xproto.XID]bool

	// gates bundles the request-path hooks (instrument + fault policy)
	// behind one atomic pointer so the hot path pays a single load when
	// neither is installed. Written under errMu.
	gates atomic.Pointer[connGates]

	// errMu is a leaf lock guarding error observation (so note() is
	// safe from lock-free request paths) and the fault schedule state
	// stepped by gate. Nothing is acquired while it is held.
	errMu      sync.Mutex
	errHandler func(*xproto.XError)
	lastNoted  error
}

// connGates is the installed request-path hooks; see Conn.gates.
type connGates struct {
	in     Instrument
	faults *faultState
}

// lookupWin resolves a window id for a request of major, routing a
// typed BadWindow through the connection's error handler on failure.
// Lock-free (slot-table index); callable from any context.
func (c *Conn) lookupWin(id xproto.XID, major xproto.Major) (*window, error) {
	w, err := c.server.lookupErr(id)
	if err != nil {
		var xe *xproto.XError
		if errors.As(err, &xe) {
			xe.Major = major
		}
		return nil, c.note(err)
	}
	return w, nil
}

// Name returns the diagnostic name given at Connect.
func (c *Conn) Name() string { return c.name }

// Server returns the server this connection is attached to.
func (c *Conn) Server() *Server { return c.server }

// --- Window lifecycle -------------------------------------------------

// WindowAttributes configures CreateWindow.
type WindowAttributes struct {
	OverrideRedirect bool
	Class            xproto.WindowClass
	EventMask        xproto.EventMask
	// Fill and Label are rendering hints for internal/raster (standing
	// in for background pixmaps/GCs).
	Fill  byte
	Label string
}

// CreateWindow creates a child of parent at the given parent-relative
// geometry and returns its XID. The window starts unmapped.
func (c *Conn) CreateWindow(parent xproto.XID, r xproto.Rect, borderWidth int, attrs WindowAttributes) (xproto.XID, error) {
	if err := c.gate(xproto.MajorCreateWindow, parent); err != nil {
		return xproto.None, err
	}
	s := c.server
	s.writeLock()
	defer s.mu.Unlock()
	p, err := c.lookupWin(parent, xproto.MajorCreateWindow)
	if err != nil {
		return xproto.None, err
	}
	if r.Width <= 0 || r.Height <= 0 {
		return xproto.None, c.note(&xproto.XError{
			Code: xproto.BadValue, Major: xproto.MajorCreateWindow,
			Detail: fmt.Sprintf("zero-sized window %v", r),
		})
	}
	id := s.allocID()
	w := &window{
		id:       id,
		class:    attrs.Class,
		override: attrs.OverrideRedirect,
		owner:    c,
	}
	w.setRect(r)
	w.borderW.Store(int32(borderWidth))
	w.screenIdx.Store(p.screenIdx.Load())
	if attrs.Fill != 0 {
		w.fill.Store(uint32(attrs.Fill))
	}
	if attrs.Label != "" {
		w.label.Store(&attrs.Label)
	}
	if attrs.EventMask != 0 {
		w.setMask(c, attrs.EventMask)
	}
	w.attach(p)
	s.indexPut(w)
	if anySelects(p.masks.Load(), xproto.SubstructureNotifyMask) {
		s.deliver(p, xproto.SubstructureNotifyMask, xproto.Event{
			Type: xproto.CreateNotify, Window: p.id, Subwindow: w.id, Parent: p.id,
			GX: r.X, GY: r.Y, Width: r.Width, Height: r.Height,
			BorderWidth: borderWidth, OverrideRedirect: w.override,
			Time: s.tick(),
		})
	}
	return id, nil
}

// DestroyWindow destroys the window and all its descendants.
func (c *Conn) DestroyWindow(id xproto.XID) error {
	if err := c.gate(xproto.MajorDestroyWindow, id); err != nil {
		return err
	}
	s := c.server
	s.writeLock()
	defer s.mu.Unlock()
	w, err := c.lookupWin(id, xproto.MajorDestroyWindow)
	if err != nil {
		return err
	}
	if w.isRoot {
		return fmt.Errorf("xserver: cannot destroy root window")
	}
	s.destroyLocked(w)
	return nil
}

// destroyLocked tears down w and its subtree. Caller must hold the
// server lock exclusively — destruction is the one mutation every
// lock-free reader relies on being globally serialized.
func (s *Server) destroyLocked(w *window) {
	s.destroyTreeLocked(w, true)
}

// destroyTreeLocked destroys w depth-first. Children skip the detach
// from their dying parent — its child list is dropped whole instead of
// being cloned down one element at a time.
func (s *Server) destroyTreeLocked(w *window, detachSelf bool) {
	// Destroy children first (topmost first, depth-first), as in X.
	ks := w.kids()
	for i := len(ks) - 1; i >= 0; i-- {
		s.destroyTreeLocked(ks[i], false)
	}
	if ks != nil {
		w.children.Store(nil)
	}
	if w.mapped.Load() {
		s.unmapNow(w, false)
	}
	// Mark before detaching: a lock-free QueryTree that sees the nil
	// parent then also sees the window destroyed, and reports BadWindow.
	parent := w.parent.Load()
	w.destroyed.Store(true)
	if detachSelf {
		w.detach()
	}
	s.indexDel(w)
	ev := xproto.Event{
		Type: xproto.DestroyNotify, Window: w.id, Subwindow: w.id,
		Time: s.tick(),
	}
	s.deliver(w, xproto.StructureNotifyMask, ev)
	if parent != nil {
		pev := ev
		pev.Window = parent.id
		s.deliver(parent, xproto.SubstructureNotifyMask, pev)
	}
	for _, conn := range s.conns {
		delete(conn.saveSet, w.id)
	}
	if xproto.XID(s.focus.Load()) == w.id {
		s.focus.Store(uint32(xproto.PointerRoot))
	}
}

// MapWindow maps the window. If another client has selected
// SubstructureRedirect on the parent and the window is not
// override-redirect, a MapRequest is sent to that client instead.
func (c *Conn) MapWindow(id xproto.XID) error {
	if err := c.gate(xproto.MajorMapWindow, id); err != nil {
		return err
	}
	s := c.server
	s.writeLock()
	defer s.mu.Unlock()
	w, err := c.lookupWin(id, xproto.MajorMapWindow)
	if err != nil {
		return err
	}
	if w.mapped.Load() {
		return nil
	}
	if !w.override {
		if p := w.parent.Load(); p != nil {
			if redirector := s.redirector(p); redirector != nil && redirector != c {
				redirector.enqueue(xproto.Event{
					Type: xproto.MapRequest, Window: p.id, Subwindow: w.id,
					Parent: p.id, Time: s.tick(),
				})
				return nil
			}
		}
	}
	s.mapNow(w)
	return nil
}

// mapNow flips w to mapped and emits the notify/expose events. Caller
// must hold the server lock exclusively.
func (s *Server) mapNow(w *window) {
	w.mapped.Store(true)
	p := w.parent.Load()
	wmt := w.masks.Load()
	if anySelects(wmt, xproto.StructureNotifyMask) || (p != nil && anySelects(p.masks.Load(), xproto.SubstructureNotifyMask)) {
		ev := xproto.Event{
			Type: xproto.MapNotify, Window: w.id, Subwindow: w.id,
			OverrideRedirect: w.override, Time: s.tick(),
		}
		s.deliver(w, xproto.StructureNotifyMask, ev)
		if p != nil {
			pev := ev
			pev.Window = p.id
			s.deliver(p, xproto.SubstructureNotifyMask, pev)
		}
	}
	if anySelects(wmt, xproto.ExposureMask) && w.viewable() {
		ww, wh := w.size()
		s.deliver(w, xproto.ExposureMask, xproto.Event{
			Type: xproto.Expose, Window: w.id,
			Width: ww, Height: wh, Time: s.tick(),
		})
	}
	s.pointerRecheck(w)
}

// UnmapWindow unmaps the window.
func (c *Conn) UnmapWindow(id xproto.XID) error {
	if err := c.gate(xproto.MajorUnmapWindow, id); err != nil {
		return err
	}
	s := c.server
	s.writeLock()
	defer s.mu.Unlock()
	w, err := c.lookupWin(id, xproto.MajorUnmapWindow)
	if err != nil {
		return err
	}
	if w.mapped.Load() {
		s.unmapNow(w, false)
	}
	return nil
}

// unmapNow flips w to unmapped and emits the notify events. Caller must
// hold the server lock exclusively.
func (s *Server) unmapNow(w *window, fromConfigure bool) {
	w.mapped.Store(false)
	p := w.parent.Load()
	if anySelects(w.masks.Load(), xproto.StructureNotifyMask) || (p != nil && anySelects(p.masks.Load(), xproto.SubstructureNotifyMask)) {
		ev := xproto.Event{
			Type: xproto.UnmapNotify, Window: w.id, Subwindow: w.id,
			FromConfigure: fromConfigure, Time: s.tick(),
		}
		s.deliver(w, xproto.StructureNotifyMask, ev)
		if p != nil {
			pev := ev
			pev.Window = p.id
			s.deliver(p, xproto.SubstructureNotifyMask, pev)
		}
	}
	s.pointerRecheck(w)
}

// ReparentWindow makes the window a child of newParent at (x, y). The
// window keeps its map state; a ReparentNotify is generated.
//
// Reparenting always holds the server lock exclusively: the cycle check
// and the subtree screen rewrite need a stable tree.
func (c *Conn) ReparentWindow(id, newParent xproto.XID, x, y int) error {
	if err := c.gate(xproto.MajorReparentWindow, id); err != nil {
		return err
	}
	s := c.server
	s.writeLock()
	defer s.mu.Unlock()
	w, err := c.lookupWin(id, xproto.MajorReparentWindow)
	if err != nil {
		return err
	}
	np, err := c.lookupWin(newParent, xproto.MajorReparentWindow)
	if err != nil {
		return err
	}
	if w == np || w.isAncestorOf(np) {
		return c.note(&xproto.XError{
			Code: xproto.BadMatch, Major: xproto.MajorReparentWindow, Resource: id,
			Detail: "reparent would create a cycle",
		})
	}
	wasMapped := w.mapped.Load()
	if wasMapped {
		s.unmapNow(w, false)
	}
	oldParent := w.moveTo(np, x, y)
	if sc := np.screenIdx.Load(); sc != w.screenIdx.Load() {
		setScreenIdx(w, sc)
	}
	ev := xproto.Event{
		Type: xproto.ReparentNotify, Window: w.id, Subwindow: w.id,
		Parent: np.id, GX: x, GY: y, OverrideRedirect: w.override,
		Time: s.tick(),
	}
	s.deliver(w, xproto.StructureNotifyMask, ev)
	if oldParent != nil {
		oev := ev
		oev.Window = oldParent.id
		s.deliver(oldParent, xproto.SubstructureNotifyMask, oev)
	}
	nev := ev
	nev.Window = np.id
	s.deliver(np, xproto.SubstructureNotifyMask, nev)
	if wasMapped {
		// Remapping after reparent bypasses redirection, as the X server
		// does for the re-map performed as part of ReparentWindow.
		s.mapNow(w)
	}
	return nil
}

// setScreenIdx rewrites the cached screen index for a whole subtree.
// Caller must hold the server lock exclusively.
func setScreenIdx(w *window, sc int32) {
	w.screenIdx.Store(sc)
	for _, ch := range w.kids() {
		setScreenIdx(ch, sc)
	}
}

// ConfigureWindow changes window geometry and/or stacking. If another
// client holds SubstructureRedirect on the parent, the request is
// redirected as a ConfigureRequest.
//
// Geometry-only configures are lock-free (atomic field stores);
// restacks hold the server lock exclusively.
func (c *Conn) ConfigureWindow(id xproto.XID, ch xproto.WindowChanges) error {
	if err := c.gate(xproto.MajorConfigureWindow, id); err != nil {
		return err
	}
	s := c.server
	if ch.Mask&(xproto.CWStackMode|xproto.CWSibling) != 0 {
		s.writeLock()
		defer s.mu.Unlock()
	}
	w, err := c.lookupWin(id, xproto.MajorConfigureWindow)
	if err != nil {
		return err
	}
	if c.configRedirected(w, ch) {
		return nil
	}
	return c.note(s.configure(w, ch))
}

// configRedirected forwards the configure as a ConfigureRequest when
// another client holds SubstructureRedirect on the parent, reporting
// whether it did.
func (c *Conn) configRedirected(w *window, ch xproto.WindowChanges) bool {
	s := c.server
	if w.override {
		return false
	}
	p := w.parent.Load()
	if p == nil {
		return false
	}
	redirector := s.redirector(p)
	if redirector == nil || redirector == c {
		return false
	}
	redirector.enqueue(xproto.Event{
		Type: xproto.ConfigureRequest, Window: p.id, Subwindow: w.id,
		Parent: p.id, ValueMask: ch.Mask,
		GX: ch.X, GY: ch.Y, Width: ch.Width, Height: ch.Height,
		BorderWidth: ch.BorderWidth, Sibling: ch.Sibling,
		StackMode: ch.StackMode, Time: s.tick(),
	})
	return true
}

// configure applies a configure change. Geometry fields are atomic
// stores (safe from any context); the restack branch requires the
// server lock exclusively — callers route accordingly. Field application order (and mid-request error
// behavior) matches the X server: earlier fields stick even when a
// later one fails validation.
func (s *Server) configure(w *window, ch xproto.WindowChanges) error {
	if ch.Mask&(xproto.CWX|xproto.CWY) != 0 {
		switch ch.Mask & (xproto.CWX | xproto.CWY) {
		case xproto.CWX | xproto.CWY:
			w.geomXY.Store(packIntPair(ch.X, ch.Y))
		case xproto.CWX:
			w.storeX(ch.X)
		case xproto.CWY:
			w.storeY(ch.Y)
		}
	}
	if ch.Mask&xproto.CWWidth != 0 && ch.Width <= 0 {
		return &xproto.XError{
			Code: xproto.BadValue, Major: xproto.MajorConfigureWindow, Resource: w.id,
			Detail: fmt.Sprintf("width %d", ch.Width),
		}
	}
	if ch.Mask&xproto.CWHeight != 0 && ch.Height <= 0 {
		if ch.Mask&xproto.CWWidth != 0 {
			w.storeW(ch.Width)
		}
		return &xproto.XError{
			Code: xproto.BadValue, Major: xproto.MajorConfigureWindow, Resource: w.id,
			Detail: fmt.Sprintf("height %d", ch.Height),
		}
	}
	switch ch.Mask & (xproto.CWWidth | xproto.CWHeight) {
	case xproto.CWWidth | xproto.CWHeight:
		w.geomWH.Store(packIntPair(ch.Width, ch.Height))
	case xproto.CWWidth:
		w.storeW(ch.Width)
	case xproto.CWHeight:
		w.storeH(ch.Height)
	}
	if ch.Mask&xproto.CWBorderWidth != 0 {
		w.borderW.Store(int32(ch.BorderWidth))
	}
	if ch.Mask&xproto.CWStackMode != 0 {
		var sibling *window
		if ch.Mask&xproto.CWSibling != 0 && ch.Sibling != xproto.None {
			sb, err := s.lookupErr(ch.Sibling)
			if err != nil {
				return err
			}
			sibling = sb
		}
		w.restack(ch.StackMode, sibling)
	}
	p := w.parent.Load()
	if anySelects(w.masks.Load(), xproto.StructureNotifyMask) || (p != nil && anySelects(p.masks.Load(), xproto.SubstructureNotifyMask)) {
		x, y := w.pos()
		ww, wh := w.size()
		ev := xproto.Event{
			Type: xproto.ConfigureNotify, Window: w.id, Subwindow: w.id,
			GX: x, GY: y, Width: ww, Height: wh,
			BorderWidth: int(w.borderW.Load()), Time: s.tick(),
		}
		s.deliver(w, xproto.StructureNotifyMask, ev)
		if p != nil {
			pev := ev
			pev.Window = p.id
			s.deliver(p, xproto.SubstructureNotifyMask, pev)
		}
	}
	s.pointerRecheck(w)
	return nil
}

// MoveWindow is shorthand for ConfigureWindow with CWX|CWY.
func (c *Conn) MoveWindow(id xproto.XID, x, y int) error {
	return c.ConfigureWindow(id, xproto.WindowChanges{Mask: xproto.CWX | xproto.CWY, X: x, Y: y})
}

// ResizeWindow is shorthand for ConfigureWindow with CWWidth|CWHeight.
func (c *Conn) ResizeWindow(id xproto.XID, width, height int) error {
	return c.ConfigureWindow(id, xproto.WindowChanges{Mask: xproto.CWWidth | xproto.CWHeight, Width: width, Height: height})
}

// MoveResizeWindow combines a move and a resize in one request.
func (c *Conn) MoveResizeWindow(id xproto.XID, r xproto.Rect) error {
	return c.ConfigureWindow(id, xproto.WindowChanges{
		Mask: xproto.CWX | xproto.CWY | xproto.CWWidth | xproto.CWHeight,
		X:    r.X, Y: r.Y, Width: r.Width, Height: r.Height,
	})
}

// RaiseWindow raises the window to the top of its siblings.
func (c *Conn) RaiseWindow(id xproto.XID) error {
	return c.ConfigureWindow(id, xproto.WindowChanges{Mask: xproto.CWStackMode, StackMode: xproto.Above})
}

// LowerWindow lowers the window to the bottom of its siblings.
func (c *Conn) LowerWindow(id xproto.XID) error {
	return c.ConfigureWindow(id, xproto.WindowChanges{Mask: xproto.CWStackMode, StackMode: xproto.Below})
}

// --- Queries ------------------------------------------------------------

// Geometry describes a window's geometry as returned by GetGeometry.
type Geometry struct {
	Root        xproto.XID
	Rect        xproto.Rect // parent-relative
	BorderWidth int
}

// GetGeometry returns the window's parent-relative geometry. Lock-free.
func (c *Conn) GetGeometry(id xproto.XID) (Geometry, error) {
	if err := c.gate(xproto.MajorGetGeometry, id); err != nil {
		return Geometry{}, err
	}
	w, err := c.lookupWin(id, xproto.MajorGetGeometry)
	if err != nil {
		return Geometry{}, err
	}
	return Geometry{
		Root:        c.server.screens[w.screen()].Root,
		Rect:        w.rect(),
		BorderWidth: int(w.borderW.Load()),
	}, nil
}

// Attributes reports a window's attributes (GetWindowAttributes).
type Attributes struct {
	Class            xproto.WindowClass
	MapState         xproto.MapState
	OverrideRedirect bool
	YourEventMask    xproto.EventMask
	AllEventMasks    xproto.EventMask
}

// GetWindowAttributes returns the window's attributes. Lock-free.
func (c *Conn) GetWindowAttributes(id xproto.XID) (Attributes, error) {
	if err := c.gate(xproto.MajorGetWindowAttributes, id); err != nil {
		return Attributes{}, err
	}
	w, err := c.lookupWin(id, xproto.MajorGetWindowAttributes)
	if err != nil {
		return Attributes{}, err
	}
	a := Attributes{
		Class:            w.class,
		OverrideRedirect: w.override,
	}
	if mt := w.masks.Load(); mt != nil {
		for _, ms := range mt.sel {
			if ms.conn == c {
				a.YourEventMask = ms.mask
			}
			a.AllEventMasks |= ms.mask
		}
	}
	switch {
	case !w.mapped.Load():
		a.MapState = xproto.IsUnmapped
	case w.viewable():
		a.MapState = xproto.IsViewable
	default:
		a.MapState = xproto.IsUnviewable
	}
	return a, nil
}

// QueryTree returns the root, parent and children (bottom-to-top) of the
// window. Lock-free: the children snapshot is the momentary stacking
// order.
func (c *Conn) QueryTree(id xproto.XID) (root, parent xproto.XID, children []xproto.XID, err error) {
	if err := c.gate(xproto.MajorQueryTree, id); err != nil {
		return 0, 0, nil, err
	}
	w, err := c.lookupWin(id, xproto.MajorQueryTree)
	if err != nil {
		return 0, 0, nil, err
	}
	root = c.server.screens[w.screen()].Root
	if p := w.parent.Load(); p != nil {
		parent = p.id
	} else if w.destroyed.Load() {
		// A DestroyWindow detached w after the lookup above.
		return 0, 0, nil, c.note(&xproto.XError{Code: xproto.BadWindow, Major: xproto.MajorQueryTree, Resource: id})
	}
	ks := w.kids()
	children = make([]xproto.XID, len(ks))
	for i, ch := range ks {
		children[i] = ch.id
	}
	return root, parent, children, nil
}

// TranslateCoordinates converts (x, y) in src's coordinate space to
// dst's, returning also the child of dst containing the point (or None).
// Lock-free.
func (c *Conn) TranslateCoordinates(src, dst xproto.XID, x, y int) (dx, dy int, child xproto.XID, err error) {
	if err := c.gate(xproto.MajorTranslateCoordinates, src); err != nil {
		return 0, 0, 0, err
	}
	sw, err := c.lookupWin(src, xproto.MajorTranslateCoordinates)
	if err != nil {
		return 0, 0, 0, err
	}
	dw, err := c.lookupWin(dst, xproto.MajorTranslateCoordinates)
	if err != nil {
		return 0, 0, 0, err
	}
	dx, dy, child = translate(sw, dw, x, y)
	return dx, dy, child, nil
}

func translate(sw, dw *window, x, y int) (dx, dy int, child xproto.XID) {
	sx, sy := sw.rootCoords()
	dxr, dyr := dw.rootCoords()
	rx, ry := sx+x, sy+y
	dx, dy = rx-dxr, ry-dyr
	// The child scan works in dst-relative coordinates over one
	// membership snapshot of dst's children, top-down. Each child is
	// rejected on its own packed position (one tear-free atomic load),
	// with no rootCoords ancestor walk. When dst is a root or a virtual
	// desktop the scan visits every sibling toplevel, so the per-child
	// cost is the whole request's cost.
	ks := dw.kids()
	for i := len(ks) - 1; i >= 0; i-- {
		ch := ks[i]
		// The border only grows the left/top inset, so dx < cx rules
		// the child out before anything else of it is read.
		cx, cy := ch.pos()
		if dx < cx || dy < cy {
			continue
		}
		bw := int(ch.borderW.Load())
		lx, ly := dx-cx-bw, dy-cy-bw
		if lx < 0 || ly < 0 {
			continue
		}
		cw, chh := ch.size()
		if lx >= cw || ly >= chh || !ch.mapped.Load() {
			continue
		}
		if ch.shaped.Load() {
			if !ch.containsPoint(rx, ry) {
				continue
			}
		}
		child = ch.id
		break
	}
	return dx, dy, child
}

// SelectInput sets this connection's event mask on the window. Only one
// client at a time may select SubstructureRedirect on a given window.
func (c *Conn) SelectInput(id xproto.XID, mask xproto.EventMask) error {
	if err := c.gate(xproto.MajorSelectInput, id); err != nil {
		return err
	}
	s := c.server
	s.writeLock()
	defer s.mu.Unlock()
	w, err := c.lookupWin(id, xproto.MajorSelectInput)
	if err != nil {
		return err
	}
	// The exclusive lock makes the one-redirector check-and-set atomic.
	if mask&xproto.SubstructureRedirectMask != 0 {
		if mt := w.masks.Load(); mt != nil {
			for _, ms := range mt.sel {
				if ms.conn != c && ms.mask&xproto.SubstructureRedirectMask != 0 {
					return c.note(&xproto.XError{
						Code: xproto.BadAccess, Major: xproto.MajorSelectInput, Resource: w.id,
						Detail: fmt.Sprintf("SubstructureRedirect already selected on 0x%x", uint32(w.id)),
					})
				}
			}
		}
	}
	w.setMask(c, mask)
	return nil
}

// --- Properties ---------------------------------------------------------

// InternAtom returns the atom for name, interning it if needed.
// Lock-free on the hit path.
func (c *Conn) InternAtom(name string) xproto.Atom {
	return c.server.internAtom(name)
}

// AtomName returns the name of an atom, or "" if unknown. Lock-free.
func (c *Conn) AtomName(a xproto.Atom) string {
	return c.server.atoms.Load().byID[a]
}

// ChangeProperty replaces, prepends or appends data to a window property
// and notifies PropertyChangeMask selectors. The change is one critical
// section on the property's leaf lock.
func (c *Conn) ChangeProperty(id xproto.XID, prop, typ xproto.Atom, format int, mode xproto.PropMode, data []byte) error {
	if err := c.gate(xproto.MajorChangeProperty, id); err != nil {
		return err
	}
	w, err := c.lookupWin(id, xproto.MajorChangeProperty)
	if err != nil {
		return err
	}
	return c.changeProp(w, prop, typ, format, mode, data)
}

// changeProp applies the property change. Safe from any context.
func (c *Conn) changeProp(w *window, prop, typ xproto.Atom, format int, mode xproto.PropMode, data []byte) error {
	s := c.server
	if format != 8 && format != 16 && format != 32 {
		return c.note(&xproto.XError{
			Code: xproto.BadValue, Major: xproto.MajorChangeProperty, Resource: w.id,
			Detail: fmt.Sprintf("property format %d", format),
		})
	}
	if !w.propCellCreate(prop).change(typ, format, mode, data) {
		return c.note(&xproto.XError{
			Code: xproto.BadMatch, Major: xproto.MajorChangeProperty, Resource: w.id,
			Detail: modeDetail(mode),
		})
	}
	if anySelects(w.masks.Load(), xproto.PropertyChangeMask) {
		s.deliver(w, xproto.PropertyChangeMask, xproto.Event{
			Type: xproto.PropertyNotify, Window: w.id, Atom: prop,
			PropertyState: xproto.PropertyNewValue, Time: s.tick(),
		})
	}
	return nil
}

func modeDetail(mode xproto.PropMode) string {
	if mode == xproto.PropModeAppend {
		return "append with mismatched type/format"
	}
	return "prepend with mismatched type/format"
}

// GetProperty returns a property's value. ok is false if the property is
// not set. Property.Data is the caller's own copy, taken under the
// property's leaf lock.
func (c *Conn) GetProperty(id xproto.XID, prop xproto.Atom) (Property, bool, error) {
	if err := c.gate(xproto.MajorGetProperty, id); err != nil {
		return Property{}, false, err
	}
	w, err := c.lookupWin(id, xproto.MajorGetProperty)
	if err != nil {
		return Property{}, false, err
	}
	cell := w.propCell(prop)
	if cell == nil {
		return Property{}, false, nil
	}
	cell.propMu.Lock()
	defer cell.propMu.Unlock()
	if !cell.set {
		return Property{}, false, nil
	}
	p := Property{Type: cell.typ, Format: cell.format, Data: make([]byte, len(cell.data))}
	copy(p.Data, cell.data)
	return p, true, nil
}

// DeleteProperty removes a property, notifying PropertyChangeMask
// selectors with state PropertyDeleted. Of two racing deletes, exactly
// one finds the property set and emits the notify.
func (c *Conn) DeleteProperty(id xproto.XID, prop xproto.Atom) error {
	if err := c.gate(xproto.MajorDeleteProperty, id); err != nil {
		return err
	}
	w, err := c.lookupWin(id, xproto.MajorDeleteProperty)
	if err != nil {
		return err
	}
	cell := w.propCell(prop)
	if cell == nil {
		return nil
	}
	cell.propMu.Lock()
	wasSet := cell.set
	cell.set = false
	cell.propMu.Unlock()
	s := c.server
	if wasSet && anySelects(w.masks.Load(), xproto.PropertyChangeMask) {
		s.deliver(w, xproto.PropertyChangeMask, xproto.Event{
			Type: xproto.PropertyNotify, Window: w.id, Atom: prop,
			PropertyState: xproto.PropertyDeleted, Time: s.tick(),
		})
	}
	return nil
}

// ListProperties returns the atoms of all properties set on the window.
func (c *Conn) ListProperties(id xproto.XID) ([]xproto.Atom, error) {
	if err := c.gate(xproto.MajorListProperties, id); err != nil {
		return nil, err
	}
	w, err := c.lookupWin(id, xproto.MajorListProperties)
	if err != nil {
		return nil, err
	}
	tp := w.props.Load()
	if tp == nil {
		return nil, nil
	}
	out := make([]xproto.Atom, 0, len(tp.sel))
	for _, sl := range tp.sel {
		sl.cell.propMu.Lock()
		set := sl.cell.set
		sl.cell.propMu.Unlock()
		if set {
			out = append(out, sl.atom)
		}
	}
	return out, nil
}

// --- Save-set and connection shutdown -----------------------------------

// ChangeSaveSet adds (insert=true) or removes a window from this
// connection's save-set. When the connection closes, save-set windows are
// reparented back to their screen's root and remapped — this is what
// keeps clients alive across a window-manager restart.
func (c *Conn) ChangeSaveSet(id xproto.XID, insert bool) error {
	if err := c.gate(xproto.MajorChangeSaveSet, id); err != nil {
		return err
	}
	s := c.server
	s.writeLock()
	defer s.mu.Unlock()
	if _, err := c.lookupWin(id, xproto.MajorChangeSaveSet); err != nil {
		return err
	}
	if insert {
		c.saveSet[id] = true
	} else {
		delete(c.saveSet, id)
	}
	return nil
}

// Close shuts down the connection: save-set windows are rescued to their
// root, all other windows created by this connection are destroyed, and
// its grabs and event selections are dropped.
func (c *Conn) Close() {
	s := c.server
	s.writeLock()
	defer s.mu.Unlock()
	if !c.closed.CompareAndSwap(false, true) {
		return
	}

	// Rescue save-set windows first.
	for id := range c.saveSet {
		w := s.lookup(id)
		if w == nil {
			continue
		}
		root := s.rootOf(w)
		if w.parent.Load() != root {
			rx, ry := w.rootCoords()
			wasMapped := w.mapped.Load()
			if wasMapped {
				s.unmapNow(w, false)
			}
			w.moveTo(root, rx, ry)
			s.deliver(w, xproto.StructureNotifyMask, xproto.Event{
				Type: xproto.ReparentNotify, Window: w.id, Subwindow: w.id,
				Parent: root.id, GX: rx, GY: ry, Time: s.tick(),
			})
			s.deliver(root, xproto.SubstructureNotifyMask, xproto.Event{
				Type: xproto.ReparentNotify, Window: root.id, Subwindow: w.id,
				Parent: root.id, GX: rx, GY: ry, Time: s.tick(),
			})
			s.mapNow(w)
		} else if !w.mapped.Load() {
			s.mapNow(w)
		}
	}

	// Destroy remaining windows owned by this connection (the recursion
	// marks children destroyed, so the sweep skips them naturally).
	var owned []*window
	s.forEachWindow(func(w *window) {
		if w.owner == c {
			owned = append(owned, w)
		}
	})
	for _, w := range owned {
		if !w.destroyed.Load() {
			s.destroyLocked(w)
		}
	}

	// Drop event selections and grabs.
	s.forEachWindow(func(w *window) {
		if w.maskOf(c) != 0 {
			w.setMask(c, 0)
		}
	})
	// DeleteFunc zeroes the vacated tail, so no slot past len keeps
	// the closed conn (and its event queue) reachable.
	s.buttonGrabs = slices.DeleteFunc(s.buttonGrabs, func(g *buttonGrab) bool { return g.conn == c })
	s.keyGrabs = slices.DeleteFunc(s.keyGrabs, func(g *keyGrab) bool { return g.conn == c })
	if s.activeGrab != nil && s.activeGrab.conn == c {
		s.activeGrab = nil
	}
	s.connMu.Lock()
	delete(s.conns, c.fd)
	s.connMu.Unlock()
	c.qMu.Lock()
	c.qCond.Broadcast()
	c.qMu.Unlock()
}

// Closed reports whether the connection has been shut down. Lock-free.
func (c *Conn) Closed() bool {
	return c.closed.Load()
}

// --- Rendering hints ------------------------------------------------------

// SetWindowLabel sets the raster label drawn inside the window.
// Lock-free.
func (c *Conn) SetWindowLabel(id xproto.XID, label string) error {
	if err := c.gate(xproto.MajorSetWindowLabel, id); err != nil {
		return err
	}
	w, err := c.lookupWin(id, xproto.MajorSetWindowLabel)
	if err != nil {
		return err
	}
	if label == "" {
		w.label.Store(nil)
	} else if w.labelStr() != label {
		w.label.Store(&label)
	}
	return nil
}

// SetWindowFill sets the raster fill glyph for the window background.
// Lock-free.
func (c *Conn) SetWindowFill(id xproto.XID, fill byte) error {
	if err := c.gate(xproto.MajorSetWindowFill, id); err != nil {
		return err
	}
	w, err := c.lookupWin(id, xproto.MajorSetWindowFill)
	if err != nil {
		return err
	}
	w.fill.Store(uint32(fill))
	return nil
}
