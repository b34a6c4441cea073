package core

import "repro/internal/xproto"

// adoptExisting manages the mapped top-level windows that predate the
// WM (f.restart, or a crashed predecessor's save-set). It walks the
// root's children in QueryTree order on the calling goroutine: session
// hint matching consumes entries, so that order decides which window
// gets which hint. WM furniture, windows whose attributes cannot be
// read, override-redirect windows and unmapped ones are skipped.
func (wm *WM) adoptExisting(scr *Screen) {
	_, _, children, err := wm.conn.QueryTree(scr.Root)
	if err != nil {
		wm.check(nil, "adopt query tree", err)
		return
	}
	for _, ch := range children {
		if wm.ownsWindow(ch) {
			continue
		}
		attrs, err := wm.conn.GetWindowAttributes(ch)
		if err != nil || attrs.OverrideRedirect || attrs.MapState == xproto.IsUnmapped {
			continue
		}
		if _, err := wm.Manage(ch); err != nil {
			wm.logf("adopt 0x%x: %v", uint32(ch), err)
		}
	}
}
