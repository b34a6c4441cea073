package xserver

import (
	"sync"
	"sync/atomic"

	"repro/internal/xproto"
)

// Property is a window property value: typed, formatted bytes exactly as
// in the X protocol. Data is the caller's copy — mutating it does not
// affect the stored value.
type Property struct {
	Type   xproto.Atom
	Format int // 8, 16 or 32
	Data   []byte
}

// propCell is one property slot of a window: the value of one atom,
// guarded by its own leaf lock. Every property request is one short
// critical section on the cell, and nothing else is acquired while
// propMu is held (PropertyNotify delivery runs after the unlock). A
// rewrite copies into the existing backing array, so a value no longer
// than the cell's largest so far allocates nothing.
type propCell struct {
	propMu sync.Mutex
	set    bool // false until the first write and after a delete
	typ    xproto.Atom
	format int
	data   []byte
}

// change applies a ChangeProperty to the cell. It returns false,
// changing nothing, when an Append or Prepend names a type or format
// other than the value's.
func (p *propCell) change(typ xproto.Atom, format int, mode xproto.PropMode, data []byte) bool {
	p.propMu.Lock()
	defer p.propMu.Unlock()
	switch {
	case mode == xproto.PropModeReplace || !p.set:
		p.data = append(p.data[:0], data...)
	case p.typ != typ || p.format != format:
		return false
	case mode == xproto.PropModeAppend:
		p.data = append(p.data, data...)
	default: // Prepend: grow, shift the old value up, copy data in front.
		n := len(p.data)
		p.data = append(p.data, data...)
		copy(p.data[len(data):], p.data[:n])
		copy(p.data, data)
	}
	p.set, p.typ, p.format = true, typ, format
	return true
}

type propSlot struct {
	atom xproto.Atom
	cell *propCell
}

// propTab is a window's atom → cell index: a small immutable table,
// cloned only when a *new* atom is added (CAS on the table pointer).
// Value changes and deletion go through the shared cells and never
// touch the table. Tables up to the usual WM property count live in
// the inline buffer, so a clone is a single allocation.
type propTab struct {
	sel []propSlot
	buf [4]propSlot
	// cell is the inline home of the one cell this table version minted
	// (each clone adds exactly one atom). Later versions share the
	// pointer, so a writer that raced a clone still writes the cell the
	// new table carries, and no update is lost to a stale table. That
	// keeps the minting version reachable — a few dozen bytes per atom
	// ever set, in exchange for a clone being a single allocation.
	cell propCell
}

// propCell returns the cell for atom, or nil if the window has never
// had that property. Lock-free.
func (w *window) propCell(atom xproto.Atom) *propCell {
	tp := w.props.Load()
	if tp == nil {
		return nil
	}
	for i := range tp.sel {
		if tp.sel[i].atom == atom {
			return tp.sel[i].cell
		}
	}
	return nil
}

// propCellCreate returns the cell for atom, inserting a slot if needed.
// Lock-free: concurrent inserts race on a table CAS, and the loser
// retries against the winner's table.
func (w *window) propCellCreate(atom xproto.Atom) *propCell {
	for {
		old := w.props.Load()
		var cur []propSlot
		if old != nil {
			for i := range old.sel {
				if old.sel[i].atom == atom {
					return old.sel[i].cell
				}
			}
			cur = old.sel
		}
		nt := &propTab{}
		if len(cur)+1 <= len(nt.buf) {
			nt.sel = nt.buf[:0]
		} else {
			nt.sel = make([]propSlot, 0, len(cur)+1)
		}
		nt.sel = append(nt.sel, cur...)
		nt.sel = append(nt.sel, propSlot{atom: atom, cell: &nt.cell})
		if w.props.CompareAndSwap(old, nt) {
			return &nt.cell
		}
	}
}

// maskSel is one connection's event-mask selection on a window.
type maskSel struct {
	conn *Conn
	mask xproto.EventMask
}

// maskTab is a window's full selection set, published as an immutable
// snapshot: mutation clones (under Server.mu exclusive), delivery
// loads and iterates sel with no lock. Small sets — the norm is one or
// two selections, the owner plus the WM — live in the inline buffer,
// so publishing a snapshot is a single allocation.
type maskTab struct {
	sel []maskSel
	buf [2]maskSel
}

func (w *window) maskOf(c *Conn) xproto.EventMask {
	tp := w.masks.Load()
	if tp == nil {
		return 0
	}
	for i := range tp.sel {
		if tp.sel[i].conn == c {
			return tp.sel[i].mask
		}
	}
	return 0
}

// setMask publishes a new selection snapshot with c's mask set (or the
// entry dropped when mask is 0). Caller must hold Server.mu
// exclusively.
func (w *window) setMask(c *Conn, mask xproto.EventMask) {
	var cur []maskSel
	if tp := w.masks.Load(); tp != nil {
		cur = tp.sel
	}
	n := 0
	for _, ms := range cur {
		if ms.conn != c {
			n++
		}
	}
	if mask != 0 {
		n++
	}
	if n == 0 {
		w.masks.Store(nil)
		return
	}
	nt := &maskTab{}
	if n <= len(nt.buf) {
		nt.sel = nt.buf[:0]
	} else {
		nt.sel = make([]maskSel, 0, n)
	}
	for _, ms := range cur {
		if ms.conn != c {
			nt.sel = append(nt.sel, ms)
		}
	}
	if mask != 0 {
		nt.sel = append(nt.sel, maskSel{conn: c, mask: mask})
	}
	w.masks.Store(nt)
}

// anySelects reports whether any connection in the snapshot selects one
// of the mask bits.
func anySelects(tp *maskTab, mask xproto.EventMask) bool {
	if tp == nil {
		return false
	}
	for i := range tp.sel {
		if tp.sel[i].mask&mask != 0 {
			return true
		}
	}
	return false
}

// window is the server-internal window record. Clients refer to windows
// only by XID.
//
// Concurrency: identity fields (id, owner, class, override, isRoot) are
// immutable after creation. Everything else except property values is
// atomic or copy-on-write, so *walks never lock* — any walker
// (geometry, tree, hit-testing, delivery) may run against concurrent
// mutation and sees a weakly consistent but tear-free view. Writers
// are serialized per the scheme in index.go: geometry is
// last-writer-wins atomics (no lock at all); each property is guarded
// by its cell's leaf lock (propCell); tree links (parent/children),
// masks and map state are written under Server.mu exclusive.
type window struct {
	id       xproto.XID
	owner    *Conn // creating connection; nil for roots
	class    xproto.WindowClass
	override bool
	isRoot   bool

	// Geometry relative to parent, packed as two int32 pairs so a move
	// or resize is one atomic store and a read is tear-free.
	geomXY  atomic.Uint64 // packIntPair(X, Y)
	geomWH  atomic.Uint64 // packIntPair(Width, Height)
	borderW atomic.Int32

	mapped    atomic.Bool
	destroyed atomic.Bool
	// screen is the index of the window's screen, fixed at creation
	// (ReparentWindow refuses a parent on another screen), so it is a
	// plain field set before the window is published. An int32 packs
	// beside the two bools; an int would move every window up a size
	// class.
	screen int32

	parent atomic.Pointer[window]
	// children is the children snapshot — bottom-to-top stacking order
	// (last = highest), copy-on-write, nil when empty. It holds
	// membership only: a sibling scan (TranslateCoordinates, hit
	// testing) reads each child's position from the child's own geomXY.
	children atomic.Pointer[kidSnap]

	props atomic.Pointer[propTab]
	masks atomic.Pointer[maskTab]

	// SHAPE extension: when shaped is true, the effective bounding
	// region is the union of shapeRects (window-relative, immutable
	// snapshot).
	shaped     atomic.Bool
	shapeRects atomic.Pointer[[]xproto.Rect]

	// Rendering hints consumed by internal/raster. A real server stores
	// pixmaps and GC state; for figure reproduction we keep a label and
	// a fill glyph per window.
	label atomic.Pointer[string]
	fill  atomic.Uint32 // low byte
}

func packIntPair(a, b int) uint64 {
	return uint64(uint32(int32(a)))<<32 | uint64(uint32(int32(b)))
}

func unpackIntPair(v uint64) (int, int) {
	return int(int32(uint32(v >> 32))), int(int32(uint32(v)))
}

func (w *window) pos() (x, y int)   { return unpackIntPair(w.geomXY.Load()) }
func (w *window) size() (ww, h int) { return unpackIntPair(w.geomWH.Load()) }

func (w *window) rect() xproto.Rect {
	x, y := w.pos()
	ww, h := w.size()
	return xproto.Rect{X: x, Y: y, Width: ww, Height: h}
}

func (w *window) setRect(r xproto.Rect) {
	w.geomXY.Store(packIntPair(r.X, r.Y))
	w.geomWH.Store(packIntPair(r.Width, r.Height))
}

// storeX..storeH update one half of a packed pair with a CAS loop, so a
// partial configure racing another writer can't resurrect a stale
// sibling field.
func (w *window) storeX(x int) {
	for {
		o := w.geomXY.Load()
		_, y := unpackIntPair(o)
		if w.geomXY.CompareAndSwap(o, packIntPair(x, y)) {
			return
		}
	}
}

func (w *window) storeY(y int) {
	for {
		o := w.geomXY.Load()
		x, _ := unpackIntPair(o)
		if w.geomXY.CompareAndSwap(o, packIntPair(x, y)) {
			return
		}
	}
}

func (w *window) storeW(ww int) {
	for {
		o := w.geomWH.Load()
		_, h := unpackIntPair(o)
		if w.geomWH.CompareAndSwap(o, packIntPair(ww, h)) {
			return
		}
	}
}

func (w *window) storeH(h int) {
	for {
		o := w.geomWH.Load()
		ww, _ := unpackIntPair(o)
		if w.geomWH.CompareAndSwap(o, packIntPair(ww, h)) {
			return
		}
	}
}

// kids returns the current children snapshot (bottom-to-top). The
// returned prefix is immutable; lock-free.
func (w *window) kids() []*window {
	if snap := w.children.Load(); snap != nil {
		return snap.wins[:snap.n.Load()]
	}
	return nil
}

// setKids publishes a new children snapshot. ks must own its backing
// array (no published snapshot may share it — appendKid writes past the
// published count). Caller must hold Server.mu exclusively.
func (w *window) setKids(ks []*window) {
	if len(ks) == 0 {
		w.children.Store(nil)
		return
	}
	snap := &kidSnap{}
	if cap(ks) <= len(snap.buf) {
		snap.wins = snap.buf[:]
		copy(snap.wins, ks)
	} else {
		snap.wins = ks[:cap(ks):cap(ks)]
	}
	snap.n.Store(int32(len(ks)))
	w.children.Store(snap)
}

// appendKid stacks w on top of p's children. When the current
// snapshot's backing array has spare capacity the new child is written
// past the published count and then published with one atomic count
// store — no allocation at all. Backing arrays are append-only between
// full rebuilds (detach and restack always allocate anew), so a
// concurrent reader's previously loaded count never covers the
// in-flight write. This keeps the attach-heavy manage path O(1)
// amortized instead of rebuilding the sibling array per CreateWindow.
// Caller must hold Server.mu exclusively.
func (p *window) appendKid(w *window) {
	snap := p.children.Load()
	n := 0
	if snap != nil {
		n = int(snap.n.Load())
		if n < len(snap.wins) {
			//swm:ok append-only publish: the slot is past the published count n, invisible until the n.Store below; backing arrays never shrink between full rebuilds
			snap.wins[n] = w
			snap.n.Store(int32(n + 1))
			return
		}
	}
	// Grow with headroom.
	ns := &kidSnap{}
	if c := 2 * (n + 1); c <= len(ns.buf) {
		ns.wins = ns.buf[:]
	} else {
		ns.wins = make([]*window, c)
	}
	if snap != nil {
		copy(ns.wins, snap.wins[:n])
	}
	ns.wins[n] = w
	ns.n.Store(int32(n + 1))
	p.children.Store(ns)
}

// kidSnap is a children snapshot. Appends extend the backing in place
// and publish by bumping n; only detach and restack rebuild. Readers
// load n once and treat wins[:n] as the immutable snapshot.
type kidSnap struct {
	n    atomic.Int32 // published child count; wins valid in [0, n)
	wins []*window    // backing, len == cap, append-only past n
	// buf is the inline backing for small families (the common case: a
	// frame holds a client window and a handful of decorations), so
	// building their snapshot is a single allocation.
	buf [4]*window
}

func (w *window) labelStr() string {
	if lp := w.label.Load(); lp != nil {
		return *lp
	}
	return ""
}

// rootCoords returns w's top-left corner in root coordinates. Lock-free.
func (w *window) rootCoords() (x, y int) {
	for p := w; p != nil && !p.isRoot; p = p.parent.Load() {
		px, py := p.pos()
		bw := int(p.borderW.Load())
		x += px + bw
		y += py + bw
	}
	return x, y
}

// viewable reports whether w and all ancestors are mapped. Lock-free.
func (w *window) viewable() bool {
	for p := w; p != nil; p = p.parent.Load() {
		if !p.mapped.Load() {
			return false
		}
	}
	return true
}

// isAncestorOf reports whether w is a (transitive) ancestor of o.
func (w *window) isAncestorOf(o *window) bool {
	for p := o.parent.Load(); p != nil; p = p.parent.Load() {
		if p == w {
			return true
		}
	}
	return false
}

// detach removes w from its parent's children and clears its parent.
// Only destruction detaches; a live window changes parent through
// moveTo. Caller must hold Server.mu exclusively.
func (w *window) detach() {
	if p := w.parent.Load(); p != nil {
		p.removeKid(w)
		w.parent.Store(nil)
	}
}

// removeKid drops the first occurrence of w from p's children. Caller
// must hold Server.mu exclusively.
func (p *window) removeKid(w *window) {
	cur := p.kids()
	for i, c := range cur {
		if c == w {
			// Keep the old backing's capacity so the reparent pattern
			// (append elsewhere, remove here, repeat) stays on
			// appendKid's in-place path instead of re-growing.
			nk := make([]*window, 0, cap(cur))
			nk = append(nk, cur[:i]...)
			nk = append(nk, cur[i+1:]...)
			p.setKids(nk)
			return
		}
	}
}

// attach appends w on top of parent's children. Caller must hold
// Server.mu exclusively.
func (w *window) attach(parent *window) {
	w.parent.Store(parent)
	parent.appendKid(w)
}

// moveTo re-links the live window w on top of np's children at
// parent-relative (x, y) and returns its old parent. The new parent is
// published and w appended to its children before w leaves the old
// parent's list, so a lock-free reader may briefly find w under both
// parents but never under neither. Moving to the current parent is a
// raise: one snapshot swap, so w is never missing or listed twice.
// Caller must hold Server.mu exclusively.
func (w *window) moveTo(np *window, x, y int) (old *window) {
	old = w.parent.Load()
	w.geomXY.Store(packIntPair(x, y))
	if old == np {
		w.restack(xproto.Above, nil)
		return old
	}
	w.attach(np)
	if old != nil {
		old.removeKid(w)
	}
	return old
}

// containsPoint reports whether the root-relative point lies within w's
// (possibly shaped) extent. Lock-free.
func (w *window) containsPoint(rootX, rootY int) bool {
	wx, wy := w.rootCoords()
	lx, ly := rootX-wx, rootY-wy
	ww, wh := w.size()
	if lx < 0 || ly < 0 || lx >= ww || ly >= wh {
		return false
	}
	if !w.shaped.Load() {
		return true
	}
	if rp := w.shapeRects.Load(); rp != nil {
		for _, r := range *rp {
			if r.Contains(lx, ly) {
				return true
			}
		}
	}
	return false
}

// descendantAt returns the deepest viewable descendant of w (or w
// itself) containing the root-relative point, honouring stacking order
// (topmost child wins). Returns nil if the point is outside w.
// Lock-free: against concurrent tree mutation the result is one of the
// momentarily valid answers.
func (w *window) descendantAt(rootX, rootY int) *window {
	px, py := 0, 0
	if p := w.parent.Load(); p != nil {
		px, py = p.rootCoords()
	}
	return w.descendantAtFrom(rootX, rootY, px, py)
}

// descendantAtFrom is descendantAt with w's parent origin (in root
// coordinates) threaded down the recursion, so the walk does one
// coordinate addition per node instead of an O(depth) rootCoords chain —
// the pointer-window recomputation runs after every map/unmap/configure
// and would otherwise go quadratic in the number of windows.
func (w *window) descendantAtFrom(rootX, rootY, px, py int) *window {
	if !w.mapped.Load() {
		return nil
	}
	x, y := w.pos()
	wx, wy := px+x, py+y
	lx, ly := rootX-wx, rootY-wy
	ww, wh := w.size()
	if lx < 0 || ly < 0 || lx >= ww || ly >= wh {
		return nil
	}
	if w.shaped.Load() {
		in := false
		if rp := w.shapeRects.Load(); rp != nil {
			for _, r := range *rp {
				if r.Contains(lx, ly) {
					in = true
					break
				}
			}
		}
		if !in {
			return nil
		}
	}
	// Scan children top-to-bottom.
	ks := w.kids()
	for i := len(ks) - 1; i >= 0; i-- {
		c := ks[i]
		if !c.mapped.Load() {
			continue
		}
		if hit := c.descendantAtFrom(rootX, rootY, wx, wy); hit != nil {
			return hit
		}
	}
	return w
}

// restack applies a stacking change relative to an optional sibling,
// mirroring ConfigureWindow's sibling/stack-mode semantics for the modes
// a WM uses (Above, Below, Opposite). Caller must hold Server.mu
// exclusively.
func (w *window) restack(mode xproto.StackMode, sibling *window) {
	parent := w.parent.Load()
	if parent == nil {
		return
	}
	cur := parent.kids()
	idx := -1
	for i, c := range cur {
		if c == w {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	// Raising an already-topmost window (the common case in a raise
	// storm) is a no-op: skip the clone.
	if idx == len(cur)-1 && sibling == nil && (mode == xproto.Above || mode == xproto.TopIf) {
		return
	}
	rest := make([]*window, 0, len(cur))
	rest = append(rest, cur[:idx]...)
	rest = append(rest, cur[idx+1:]...)
	sidx := func() int {
		for i, c := range rest {
			if c == sibling {
				return i
			}
		}
		return -1
	}
	insert := func(at int) {
		nk := make([]*window, 0, cap(cur))
		nk = append(nk, rest[:at]...)
		nk = append(nk, w)
		nk = append(nk, rest[at:]...)
		parent.setKids(nk)
	}
	switch mode {
	case xproto.Above:
		if sibling == nil {
			insert(len(rest))
		} else {
			insert(sidx() + 1)
		}
	case xproto.Below:
		if sibling == nil {
			insert(0)
		} else {
			si := sidx()
			if si < 0 {
				si = 0
			}
			insert(si)
		}
	case xproto.Opposite:
		// Raise if not already topmost, else lower.
		if idx == len(cur)-1 {
			insert(0)
		} else {
			insert(len(rest))
		}
	default:
		// TopIf / BottomIf degrade to Above / Below for our purposes.
		if mode == xproto.TopIf {
			insert(len(rest))
		} else {
			insert(0)
		}
	}
}
