package xserver

import (
	"repro/internal/xproto"
)

// TreeNode is an exported snapshot of one window for rendering and
// debugging: geometry is parent-relative, children are in
// bottom-to-top stacking order.
type TreeNode struct {
	ID          xproto.XID
	Rect        xproto.Rect
	BorderWidth int
	Mapped      bool
	Override    bool
	InputOnly   bool
	Label       string
	Fill        byte
	Shaped      bool
	ShapeRects  []xproto.Rect
	Children    []*TreeNode
}

// Snapshot captures the window tree rooted at id. Unmapped windows are
// included (their Mapped flag is false) so callers can decide what to
// draw. The walk holds the server lock shared so the tree shape is a
// consistent cut; per-window fields read their own atomics.
func (c *Conn) Snapshot(id xproto.XID) (*TreeNode, error) {
	s := c.server
	s.writeLock()
	defer s.mu.Unlock()
	w, err := s.lookupErr(id)
	if err != nil {
		return nil, err
	}
	return snapshotOf(w), nil
}

func snapshotOf(w *window) *TreeNode {
	var srects []xproto.Rect
	if rp := w.shapeRects.Load(); rp != nil {
		srects = append(srects, *rp...)
	}
	n := &TreeNode{
		ID:          w.id,
		Rect:        w.rect(),
		BorderWidth: int(w.borderW.Load()),
		Mapped:      w.mapped.Load(),
		Override:    w.override,
		InputOnly:   w.class == xproto.InputOnly,
		Label:       w.labelStr(),
		Fill:        byte(w.fill.Load()),
		Shaped:      w.shaped.Load(),
		ShapeRects:  srects,
	}
	for _, ch := range w.kids() {
		n.Children = append(n.Children, snapshotOf(ch))
	}
	return n
}
