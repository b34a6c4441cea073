package core

import (
	"sort"

	"repro/internal/icccm"
	"repro/internal/xproto"
)

// Panner is the Virtual Desktop panner (paper §6.1): a miniature
// representation of the whole desktop showing every client window and
// an outline of the current viewport. Button 1 pans; button 2 over a
// miniature moves the corresponding client; resizing the panner resizes
// the desktop. The panner window is managed like any other client (it
// is reparented and decorated) and is sticky so it never pans itself
// off-screen.
type Panner struct {
	wm  *WM
	scr *Screen

	// content is the panner's client window (owned by the WM
	// connection, managed through the normal client path).
	content xproto.XID
	client  *Client

	viewport xproto.XID // viewport outline child window
	// miniOf holds the miniature mirroring each client, with the
	// geometry and label last pushed to the server so syncPanner can
	// skip clients whose mirrored state is unchanged.
	miniOf map[*Client]*miniature
	// restack asks the next sync to restack the miniatures into their
	// frames' order (markPannerRestack).
	restack bool
}

// pannerScale is the panner's ratio of desktop pixels to panner pixels.
const pannerScale = 32

// miniature is the panner-side record of one client's miniature window.
type miniature struct {
	win   xproto.XID
	rect  xproto.Rect
	label string
}

// createPanner builds and manages the panner window.
func (wm *WM) createPanner(scr *Screen) error {
	pw := scr.DesktopW / pannerScale
	ph := scr.DesktopH / pannerScale
	if pw < 10 {
		pw = 10
	}
	if ph < 10 {
		ph = 10
	}
	content, err := wm.conn.CreateWindow(scr.Root,
		xproto.Rect{X: scr.Width - pw - 20, Y: scr.Height - ph - 40, Width: pw, Height: ph},
		1, xserverAttrs("panner"))
	if err != nil {
		return err
	}
	p := &Panner{wm: wm, scr: scr, content: content, miniOf: make(map[*Client]*miniature)}
	wm.check(nil, "panner class", icccm.SetClass(wm.conn, content, icccm.Class{Instance: "panner", Class: "SwmPanner"}))
	wm.check(nil, "panner name", icccm.SetName(wm.conn, content, "Virtual Desktop"))
	// The panner must not pan with the desktop: start sticky.
	wm.db.MustPut("swm*SwmPanner*sticky", "True")
	if err := wm.conn.SelectInput(content,
		xproto.ButtonPressMask|xproto.ButtonReleaseMask|xproto.PointerMotionMask); err != nil {
		return err
	}
	if err := wm.conn.MapWindow(content); err != nil {
		return err
	}
	scr.panner = p
	c, err := wm.Manage(content)
	if err != nil {
		return err
	}
	c.isPanner = true
	p.client = c

	// Viewport outline.
	vp, err := wm.conn.CreateWindow(content, xproto.Rect{
		X: 0, Y: 0, Width: scr.Width / pannerScale, Height: scr.Height / pannerScale,
	}, 1, xserverAttrs("view"))
	if err != nil {
		return err
	}
	if err := wm.conn.MapWindow(vp); err != nil {
		return err
	}
	p.viewport = vp
	wm.syncPanner(scr)
	return nil
}

// Panner returns the screen's panner (nil when disabled).
func (scr *Screen) Panner() *Panner { return scr.panner }

// Window returns the panner's content window.
func (p *Panner) Window() xproto.XID { return p.content }

// Client returns the managed client wrapping the panner.
func (p *Panner) Client() *Client { return p.client }

// Scale returns desktop pixels per panner pixel.
func (p *Panner) Scale() int { return pannerScale }

// Miniatures returns the miniature-window -> client mapping.
func (p *Panner) Miniatures() map[xproto.XID]*Client {
	out := make(map[xproto.XID]*Client, len(p.miniOf))
	for c, m := range p.miniOf {
		out[m.win] = c
	}
	return out
}

// MiniatureCount reports the number of miniatures without building the
// mapping the way Miniatures does.
func (p *Panner) MiniatureCount() int { return len(p.miniOf) }

// markPannerDirty schedules a panner sync for the next flushRedraw.
// The ~10 places that used to rebuild the panner inline (manage,
// unmanage, move, resize, iconify, desktop switch, ...) now just set
// this bit, so an event burst costs one sync instead of one rebuild
// per event.
func (wm *WM) markPannerDirty(scr *Screen) {
	if scr.panner != nil {
		scr.pannerDirty = true
	}
}

// markPannerRestack schedules a panner sync that also restacks the
// miniatures: a managed frame on scr changed its place in the stacking
// order, or was deiconified. A new miniature starts on top of the
// panner, which is right for a newly managed frame and wrong for a
// deiconified one, which keeps its place. A move or a pan leaves the
// order alone and only marks dirty.
func (wm *WM) markPannerRestack(scr *Screen) {
	if p := scr.panner; p != nil {
		p.restack = true
		scr.pannerDirty = true
	}
}

// markViewDirty schedules a viewport/scrollbar refresh (pan position
// changed but client geometry did not).
func (wm *WM) markViewDirty(scr *Screen) {
	scr.viewDirty = true
}

// miniShown reports whether c is mirrored by a miniature on scr's
// panner. Sticky clients and the panner itself are not shown: they do
// not live on the desktop. Iconified clients are hidden with their
// frames.
func miniShown(c *Client, scr *Screen) bool {
	return c.scr == scr && !c.Sticky && !c.isPanner && c.State == xproto.NormalState
}

// miniRect is the desktop-to-panner projection of the client's frame.
func (p *Panner) miniRect(c *Client) xproto.Rect {
	return xproto.Rect{
		X:      c.FrameRect.X / pannerScale,
		Y:      c.FrameRect.Y / pannerScale,
		Width:  max(c.FrameRect.Width/pannerScale, 2),
		Height: max(c.FrameRect.Height/pannerScale, 2),
	}
}

// syncPanner reconciles the miniatures with the current client set:
// create on appear, destroy on leave, move/resize/relabel only when
// the mirrored state actually changed, and restack only when
// markPannerRestack asked for it. Each request's error is handled
// where it is issued: a failed destroy queues an orphan, a failed
// create records nothing, and a failed update drops the miniature and
// re-dirties the panner so the next sync recreates it.
func (wm *WM) syncPanner(scr *Screen) {
	p := scr.panner
	if p == nil {
		return
	}
	damage := 0
	retry := false

	// Pass 1: drop miniatures whose client left the desktop (unmanaged,
	// iconified, stuck, moved to another screen).
	for c, m := range p.miniOf {
		if wm.clients[c.Win] == c && miniShown(c, scr) {
			continue
		}
		damage++
		wm.destroyWindow(m.win)
		delete(p.miniOf, c)
	}
	// Pass 2: create missing miniatures, update changed ones.
	for _, c := range wm.clients {
		if !miniShown(c, scr) {
			continue
		}
		r := p.miniRect(c)
		m := p.miniOf[c]
		if m == nil {
			damage++
			wm.createMini(p, c, r)
			continue
		}
		if m.rect != r {
			damage++
			m.rect = r
			if err := wm.conn.MoveResizeWindow(m.win, r); err != nil {
				wm.dropFailedMini(p, c, "update miniature", err)
				retry = true
				continue
			}
		}
		if label := miniLabel(c); label != m.label {
			damage++
			m.label = label
			if err := wm.conn.SetWindowLabel(m.win, label); err != nil {
				wm.dropFailedMini(p, c, "update miniature", err)
				retry = true
			}
		}
	}
	if p.restack {
		p.restack = false
		if !wm.restackMinis(p) {
			retry = true
		}
	}
	if retry {
		scr.pannerDirty = true
	}

	// Damage for this sync: how many miniatures the incremental index
	// actually touched (the whole point of the PR 2 diff — a clean pump
	// observes 0 here).
	wm.metrics.pannerDamage.Observe(int64(damage))

	// The viewport outline goes last so it stays above any newly
	// created miniatures.
	wm.updatePannerViewport(scr)
}

// createMini creates, fills and maps c's miniature at r. A miniature
// is recorded only once its window exists, and dropped again if it
// cannot be mapped.
func (wm *WM) createMini(p *Panner, c *Client, r xproto.Rect) {
	label := miniLabel(c)
	win, err := wm.conn.CreateWindow(p.content, r, 0, xserverAttrs(label))
	if err != nil {
		wm.check(nil, "create miniature", err)
		return
	}
	p.miniOf[c] = &miniature{win: win, rect: r, label: label}
	wm.check(nil, "fill miniature", wm.conn.SetWindowFill(win, '#'))
	if err := wm.conn.MapWindow(win); err != nil {
		// Don't keep an unmapped, untracked miniature alive.
		wm.dropFailedMini(p, c, "map miniature", err)
	}
}

// restackMinis stacks the miniatures in their frames' order on the
// desktop, reading each order with one QueryTree. The longest run of
// miniatures, from the bottom, that already sits in that order stays
// put; each of the rest is raised, lowest frame first. It reports
// false when a miniature had to be dropped, so the sync retries.
func (wm *WM) restackMinis(p *Panner) bool {
	_, _, frames, err := wm.conn.QueryTree(p.scr.Desktop)
	if err != nil {
		wm.check(nil, "query desktop", err)
		return true
	}
	_, _, kids, err := wm.conn.QueryTree(p.content)
	if err != nil {
		wm.check(nil, "query panner", err)
		return true
	}
	want := make([]*Client, 0, len(p.miniOf))
	for _, f := range frames {
		if c := wm.byFrame[f]; c != nil && p.miniOf[c] != nil {
			want = append(want, c)
		}
	}
	kept := 0
	for _, k := range kids {
		if kept < len(want) && k == p.miniOf[want[kept]].win {
			kept++
		}
	}
	ok := true
	for _, c := range want[kept:] {
		if err := wm.conn.RaiseWindow(p.miniOf[c].win); err != nil {
			wm.dropFailedMini(p, c, "restack miniature", err)
			ok = false
		}
	}
	return ok
}

// dropFailedMini reports a failed miniature request, then destroys and
// forgets c's miniature. The window may already be gone under us (e.g.
// an injected KillTarget); a failed destroy queues it as an orphan.
func (wm *WM) dropFailedMini(p *Panner, c *Client, op string, err error) {
	wm.check(nil, op, err)
	if m := p.miniOf[c]; m != nil {
		wm.destroyWindow(m.win)
		delete(p.miniOf, c)
	}
}

func miniLabel(c *Client) string {
	if c.Class.Instance != "" {
		return c.Class.Instance
	}
	return c.Name
}

// updatePannerViewport moves the viewport outline to the current pan
// position.
func (wm *WM) updatePannerViewport(scr *Screen) {
	p := scr.panner
	if p == nil || p.viewport == xproto.None {
		return
	}
	wm.check(nil, "move panner viewport", wm.conn.MoveWindow(p.viewport, scr.PanX/pannerScale, scr.PanY/pannerScale))
	wm.check(nil, "raise panner viewport", wm.conn.RaiseWindow(p.viewport))
}

// handlePress processes a button press inside the panner content
// window at panner-relative (x, y).
func (p *Panner) handlePress(button, x, y int) {
	wm := p.wm
	switch button {
	case xproto.Button1:
		// Pan so the clicked point becomes the viewport center
		// ("the current position outline can be moved to view another
		// portion of the desktop").
		wm.PanTo(p.scr, x*pannerScale-p.scr.Width/2, y*pannerScale-p.scr.Height/2)
	case xproto.Button2:
		// Start a move of the client whose miniature is under the
		// pointer ("a move operation is started on the window").
		if c := p.miniAt(x, y); c != nil {
			wm.moveState = &moveState{client: c, viaPanner: true}
		}
	}
}

// handleRelease finishes a panner-mediated move: the client frame is
// repositioned to the drop point, scaled up to desktop coordinates.
func (p *Panner) handleRelease(button, x, y int) {
	wm := p.wm
	if button != xproto.Button2 || wm.moveState == nil || !wm.moveState.viaPanner {
		return
	}
	c := wm.moveState.client
	wm.moveState = nil
	wm.moveFrame(c, x*pannerScale, y*pannerScale)
}

// miniAt returns the client whose miniature is topmost at
// panner-relative (x, y) in the panner's stacking order, or nil.
func (p *Panner) miniAt(x, y int) *Client {
	_, _, kids, err := p.wm.conn.QueryTree(p.content)
	if err != nil {
		p.wm.check(nil, "query panner", err)
		return nil
	}
	hits := make(map[xproto.XID]*Client)
	for c, m := range p.miniOf {
		if m.rect.Contains(x, y) {
			hits[m.win] = c
		}
	}
	for i := len(kids) - 1; i >= 0; i-- {
		if c := hits[kids[i]]; c != nil {
			return c
		}
	}
	return nil
}

// handleResize reacts to the panner client being resized: "The act of
// resizing the panner object causes the underlying Virtual Desktop
// window to resize."
func (p *Panner) handleResize(w, h int) {
	wm := p.wm
	wm.ResizeDesktop(p.scr, w*pannerScale, h*pannerScale)
	wm.check(nil, "resize panner viewport", wm.conn.MoveResizeWindow(p.viewport, xproto.Rect{
		X: p.scr.PanX / pannerScale, Y: p.scr.PanY / pannerScale,
		Width: p.scr.Width / pannerScale, Height: p.scr.Height / pannerScale,
	}))
}

// MiniatureClients returns the clients currently represented by
// miniatures, sorted by frame position for deterministic iteration.
func (p *Panner) MiniatureClients() []*Client {
	out := make([]*Client, 0, len(p.miniOf))
	for c := range p.miniOf {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].FrameRect.Y != out[j].FrameRect.Y {
			return out[i].FrameRect.Y < out[j].FrameRect.Y
		}
		return out[i].FrameRect.X < out[j].FrameRect.X
	})
	return out
}
