package xserver

import (
	"errors"

	"repro/internal/xproto"
)

// Batch records window requests client-side and replays them at Flush
// — the Xlib request pipeline: callers queue requests, get back cookies
// immediately, and learn about errors only after the flush, exactly as
// Xlib reports asynchronous protocol errors. Flush replays each op
// through its request method, under that request's own locks, so other
// clients' requests may interleave with a batch as they would with a
// real pipeline, and a batch is observationally the same request
// sequence issued one call at a time.
//
// CreateWindow allocates the new window's XID at record time (clients
// own their ID space, as in XCB), so the cookie's Window() may be used
// as the target of later ops in the same batch.
//
// A Batch is not safe for concurrent use and must be flushed at most
// once. Ops apply in record order; an op that fails does not stop the
// ones after it (each gets its own cookie error, mirroring the X wire
// protocol, where every queued request is executed regardless of
// earlier errors).
type Batch struct {
	conn    *Conn
	ops     []batchOp
	flushed bool

	// ckBuf and opsBuf back the first cookies and ops recorded, so a
	// typical batch (the manage setup sequence is six ops) costs one
	// Batch allocation total; only larger batches fall back to
	// per-cookie and grown-slice allocations. Cookies must be
	// individually stable pointers, which is why ops cannot simply
	// embed them.
	ckBuf  [8]Cookie
	ckN    int
	opsBuf [8]batchOp
}

// ErrNotFlushed is returned by Cookie.Err for a batch that has not
// been flushed yet.
var ErrNotFlushed = errors.New("xserver: batch not flushed")

// Cookie is the deferred result of one batched request. After the
// batch is flushed, Err reports the op's protocol error (nil on
// success). For CreateWindow cookies, Window returns the XID assigned
// at record time; it is valid immediately.
type Cookie struct {
	major string
	win   xproto.XID
	err   error
	done  bool
}

// Window returns the window the op targets — for CreateWindow, the
// pre-allocated XID of the window being created.
func (ck *Cookie) Window() xproto.XID { return ck.win }

// Err returns the op's result: nil on success, the protocol error on
// failure, or ErrNotFlushed before the batch is flushed.
func (ck *Cookie) Err() error {
	if !ck.done {
		return ErrNotFlushed
	}
	return ck.err
}

// Major returns the request name of the op ("CreateWindow", ...).
func (ck *Cookie) Major() string { return ck.major }

type opKind uint8

const (
	opCreateWindow opKind = iota
	opDestroyWindow
	opMapWindow
	opUnmapWindow
	opReparentWindow
	opConfigureWindow
	opChangeProperty
	opSetWindowLabel
	opSetWindowFill
	opSelectInput
	opChangeSaveSet
)

var opMajors = [...]string{
	opCreateWindow:    "CreateWindow",
	opDestroyWindow:   "DestroyWindow",
	opMapWindow:       "MapWindow",
	opUnmapWindow:     "UnmapWindow",
	opReparentWindow:  "ReparentWindow",
	opConfigureWindow: "ConfigureWindow",
	opChangeProperty:  "ChangeProperty",
	opSetWindowLabel:  "SetWindowLabel",
	opSetWindowFill:   "SetWindowFill",
	opSelectInput:     "SelectInput",
	opChangeSaveSet:   "ChangeSaveSet",
}

// batchOp is a recorded request: a tagged union rather than a closure
// so recording an op costs one slice slot plus its cookie.
type batchOp struct {
	kind   opKind
	id     xproto.XID // target window (pre-allocated for CreateWindow)
	parent xproto.XID // CreateWindow parent / ReparentWindow new parent
	x, y   int        // ReparentWindow destination
	bw     int
	rect   xproto.Rect
	attrs  WindowAttributes
	ch     xproto.WindowChanges
	mask   xproto.EventMask // SelectInput
	insert bool             // ChangeSaveSet
	prop   xproto.Atom
	typ    xproto.Atom
	format int
	mode   xproto.PropMode
	data   []byte
	label  string
	fill   byte
	ck     *Cookie
}

// Batch starts an empty request batch on this connection.
func (c *Conn) Batch() *Batch {
	return &Batch{conn: c}
}

// Len reports the number of recorded ops.
func (b *Batch) Len() int { return len(b.ops) }

func (b *Batch) record(op batchOp) *Cookie {
	if b.flushed {
		panic("xserver: op recorded on flushed batch")
	}
	if b.ckN < len(b.ckBuf) {
		op.ck = &b.ckBuf[b.ckN]
		b.ckN++
		op.ck.major = opMajors[op.kind]
		op.ck.win = op.id
	} else {
		op.ck = &Cookie{major: opMajors[op.kind], win: op.id}
	}
	if b.ops == nil {
		b.ops = b.opsBuf[:0]
	}
	b.ops = append(b.ops, op)
	return op.ck
}

// CreateWindow records a window creation. The new window's XID is
// assigned now and returned via the cookie's Window(), so it can be
// the target of later ops in the same batch.
func (b *Batch) CreateWindow(parent xproto.XID, r xproto.Rect, borderWidth int, attrs WindowAttributes) *Cookie {
	return b.record(batchOp{
		kind: opCreateWindow, id: b.conn.server.allocID(),
		parent: parent, rect: r, bw: borderWidth, attrs: attrs,
	})
}

// DestroyWindow records a window destruction.
func (b *Batch) DestroyWindow(id xproto.XID) *Cookie {
	return b.record(batchOp{kind: opDestroyWindow, id: id})
}

// MapWindow records a map request (subject to SubstructureRedirect,
// like the unbatched call).
func (b *Batch) MapWindow(id xproto.XID) *Cookie {
	return b.record(batchOp{kind: opMapWindow, id: id})
}

// UnmapWindow records an unmap request.
func (b *Batch) UnmapWindow(id xproto.XID) *Cookie {
	return b.record(batchOp{kind: opUnmapWindow, id: id})
}

// ReparentWindow records a reparent to newParent at (x, y).
func (b *Batch) ReparentWindow(id, newParent xproto.XID, x, y int) *Cookie {
	return b.record(batchOp{kind: opReparentWindow, id: id, parent: newParent, x: x, y: y})
}

// ConfigureWindow records a geometry/stacking change (subject to
// SubstructureRedirect, like the unbatched call).
func (b *Batch) ConfigureWindow(id xproto.XID, ch xproto.WindowChanges) *Cookie {
	return b.record(batchOp{kind: opConfigureWindow, id: id, ch: ch})
}

// MoveWindow is shorthand for ConfigureWindow with CWX|CWY.
func (b *Batch) MoveWindow(id xproto.XID, x, y int) *Cookie {
	return b.ConfigureWindow(id, xproto.WindowChanges{Mask: xproto.CWX | xproto.CWY, X: x, Y: y})
}

// ResizeWindow is shorthand for ConfigureWindow with CWWidth|CWHeight.
func (b *Batch) ResizeWindow(id xproto.XID, width, height int) *Cookie {
	return b.ConfigureWindow(id, xproto.WindowChanges{Mask: xproto.CWWidth | xproto.CWHeight, Width: width, Height: height})
}

// MoveResizeWindow combines a move and a resize in one op.
func (b *Batch) MoveResizeWindow(id xproto.XID, r xproto.Rect) *Cookie {
	return b.ConfigureWindow(id, xproto.WindowChanges{
		Mask: xproto.CWX | xproto.CWY | xproto.CWWidth | xproto.CWHeight,
		X:    r.X, Y: r.Y, Width: r.Width, Height: r.Height,
	})
}

// RaiseWindow raises the window to the top of its siblings.
func (b *Batch) RaiseWindow(id xproto.XID) *Cookie {
	return b.ConfigureWindow(id, xproto.WindowChanges{Mask: xproto.CWStackMode, StackMode: xproto.Above})
}

// LowerWindow lowers the window to the bottom of its siblings.
func (b *Batch) LowerWindow(id xproto.XID) *Cookie {
	return b.ConfigureWindow(id, xproto.WindowChanges{Mask: xproto.CWStackMode, StackMode: xproto.Below})
}

// ChangeProperty records a property change.
func (b *Batch) ChangeProperty(id xproto.XID, prop, typ xproto.Atom, format int, mode xproto.PropMode, data []byte) *Cookie {
	return b.record(batchOp{
		kind: opChangeProperty, id: id,
		prop: prop, typ: typ, format: format, mode: mode, data: data,
	})
}

// SetWindowLabel records a raster label change.
func (b *Batch) SetWindowLabel(id xproto.XID, label string) *Cookie {
	return b.record(batchOp{kind: opSetWindowLabel, id: id, label: label})
}

// SetWindowFill records a raster fill change.
func (b *Batch) SetWindowFill(id xproto.XID, fill byte) *Cookie {
	return b.record(batchOp{kind: opSetWindowFill, id: id, fill: fill})
}

// SelectInput records an event-mask change (subject to the same
// one-SubstructureRedirect-selector rule as the unbatched call).
func (b *Batch) SelectInput(id xproto.XID, mask xproto.EventMask) *Cookie {
	return b.record(batchOp{kind: opSelectInput, id: id, mask: mask})
}

// ChangeSaveSet records a save-set insertion or removal.
func (b *Batch) ChangeSaveSet(id xproto.XID, insert bool) *Cookie {
	return b.record(batchOp{kind: opChangeSaveSet, id: id, insert: insert})
}

// Flush replays the recorded ops in record order, each through its
// request method (so each passes the connection's gate, with its fault
// schedule and instrument, exactly as an unbatched call). Every cookie
// is resolved; Flush returns the first op error (or nil if all
// succeeded) so callers that don't need per-op granularity can treat
// the whole batch as one request. Flushing an empty batch is a no-op;
// flushing twice is an error.
func (b *Batch) Flush() error {
	if b.flushed {
		return errors.New("xserver: batch flushed twice")
	}
	b.flushed = true
	if len(b.ops) == 0 {
		return nil
	}
	c := b.conn
	if g := c.gates.Load(); g != nil && g.in != nil {
		g.in.BatchFlush(len(b.ops))
	}
	var first error
	for i := range b.ops {
		op := &b.ops[i]
		err := op.apply(c)
		op.ck.err, op.ck.done = err, true
		if first == nil && err != nil {
			first = err
		}
	}
	return first
}

// apply issues the recorded request on c.
func (op *batchOp) apply(c *Conn) error {
	switch op.kind {
	case opCreateWindow:
		_, err := c.createWindow(op.id, op.parent, op.rect, op.bw, op.attrs)
		return err
	case opDestroyWindow:
		return c.DestroyWindow(op.id)
	case opMapWindow:
		return c.MapWindow(op.id)
	case opUnmapWindow:
		return c.UnmapWindow(op.id)
	case opReparentWindow:
		return c.ReparentWindow(op.id, op.parent, op.x, op.y)
	case opConfigureWindow:
		return c.ConfigureWindow(op.id, op.ch)
	case opChangeProperty:
		return c.ChangeProperty(op.id, op.prop, op.typ, op.format, op.mode, op.data)
	case opSetWindowLabel:
		return c.SetWindowLabel(op.id, op.label)
	case opSetWindowFill:
		return c.SetWindowFill(op.id, op.fill)
	case opSelectInput:
		return c.SelectInput(op.id, op.mask)
	case opChangeSaveSet:
		return c.ChangeSaveSet(op.id, op.insert)
	}
	return nil
}
