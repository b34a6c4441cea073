// Package core implements swm itself: a policy-free, user-configurable
// reparenting window manager (LaStrange, USENIX 1990). All policy comes
// from the X resource database: panel definitions describe decorations,
// icons, root panels and icon holders; bindings attach window-manager
// functions to objects; and operational resources control the Virtual
// Desktop, sticky windows, placement and session management.
//
// The WM runs against the in-memory X server in internal/xserver. Use
// New to create it, then either Run (blocking event loop) or Pump
// (drain pending events synchronously — what tests and benchmarks use).
package core

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/bindings"
	"repro/internal/degrade"
	"repro/internal/icccm"
	"repro/internal/objects"
	"repro/internal/obs"
	"repro/internal/session"
	"repro/internal/templates"
	"repro/internal/xproto"
	"repro/internal/xrdb"
	"repro/internal/xserver"
)

// MaxDesktopSize is the X window size limit the paper cites for the
// Virtual Desktop: "the size of the Virtual Desktop is limited only by
// the usable area of an X window, 32767 x 32767 pixels".
const MaxDesktopSize = 32767

// Options configure WM startup.
type Options struct {
	// DB is the resource database. Nil loads the built-in default
	// template (paper §3).
	DB *xrdb.DB
	// VirtualDesktop enables the Virtual Desktop (§6). The desktop
	// starts at 4x the screen in each dimension, clamped to
	// MaxDesktopSize; WM.ResizeDesktop changes it.
	VirtualDesktop bool
	// EnablePanner creates the Virtual Desktop panner (§6.1).
	EnablePanner bool
	// EnableScrollbars creates desktop scrollbar strips along the
	// right and bottom screen edges (§6: the desktop "can be panned
	// using scrollbars, a two dimensional panner object, or window
	// manager functions").
	EnableScrollbars bool
	// Log receives diagnostics; nil discards them.
	Log io.Writer
}

// WM is a running swm instance.
type WM struct {
	server *xserver.Server
	conn   *xserver.Conn
	db     *xrdb.DB
	opts   Options

	screens []*Screen

	clients  map[xproto.XID]*Client // by client window
	byFrame  map[xproto.XID]*Client // by frame (decoration root) window
	byObjWin map[xproto.XID]objRef  // decoration/icon object windows

	hintTable    *session.Table
	remoteFormat string

	// lastPlaces holds the most recent f.places output; cmd/swm writes
	// it to disk.
	lastPlaces string

	// statsSize is the buffer size for the next stats render: the last
	// render's length plus headroom (see ServeProto).
	statsSize int

	focus *Client

	// moveState tracks an interactive f.move between grab and release.
	moveState *moveState
	// resizing tracks an interactive corner resize.
	resizing *resizeState
	// prompt holds a pending f.*(multiple) invocation: the next button
	// press on a client applies it (§4.2).
	prompt *promptState

	quitRequested    bool
	restartRequested bool

	// orphans are WM-owned window IDs whose DestroyWindow failed; the
	// janitor in Pump/Run retries them so server-side windows cannot
	// leak across transient errors.
	orphans []xproto.XID

	// metrics is the build-once instrument set (internal/obs); deg is
	// the shared degradation ledger every survived failure flows
	// through. Both are lock-free on the recording side: the connection
	// error handler runs while the server lock is held, so nothing on
	// those paths may block or issue X requests.
	metrics *wmMetrics
	deg     *degrade.Tracker

	// closed makes Close idempotent.
	closed bool
}

// Screen is per-screen WM state.
type Screen struct {
	wm         *WM
	Num        int
	Root       xproto.XID
	Width      int
	Height     int
	Monochrome bool

	// Desktop is the Virtual Desktop window (None when disabled).
	Desktop            xproto.XID
	DesktopW, DesktopH int
	PanX, PanY         int
	panner             *Panner
	// pannerDirty and viewDirty coalesce redraw work: call sites mark
	// them and flushRedraw settles the panner/scrollbars once per event
	// burst (see markPannerDirty/markViewDirty).
	pannerDirty, viewDirty     bool
	hscroll, vscroll           xproto.XID
	rootBindings               *bindings.Table
	rootPanels                 []*Client
	rootIcons                  []*rootIcon
	holders                    []*IconHolder
	menus                      []*Menu
	placeCursorX, placeCursorY int

	// Multiple Virtual Desktops (the paper's future-work extension).
	extraDesktops  []*extraDesktop
	currentDesktop int
	desktop0Pan    [2]int
}

// Client is one managed top-level window.
type Client struct {
	wm  *WM
	scr *Screen

	Win        xproto.XID // the client's own window
	frame      *objects.Object
	clientSlot *objects.Object

	Name     string
	IconName string
	Class    icccm.Class
	Machine  string
	Command  []string

	State  int // NormalState or IconicState
	Sticky bool
	Shaped bool
	// Transient is the WM_TRANSIENT_FOR target (None for ordinary
	// windows). Transients get the "transient" resource prefix and are
	// excluded from session management.
	Transient xproto.XID

	// FrameRect is the decoration geometry in parent coordinates:
	// desktop coordinates normally, root coordinates when sticky.
	FrameRect xproto.Rect
	clientW   int
	clientH   int

	zoomed    bool
	savedRect xproto.Rect
	hasSaved  bool

	icon       *Icon
	iconX      int
	iconY      int
	hasIconPos bool
	holder     *IconHolder

	decoration string // decoration panel name in use

	// ignoreUnmaps counts UnmapNotify events caused by the WM's own
	// reparenting of a mapped client, which must not be taken as ICCCM
	// withdrawal.
	ignoreUnmaps int

	// corners are the resize handle windows, if the decoration
	// requested resizeCorners.
	corners [4]xproto.XID

	// Internal clients created by the WM itself.
	isRootPanel bool
	isPanner    bool
}

// Icon is a realized icon appearance panel for one client (§4.1.2).
type Icon struct {
	tree   *objects.Object
	parent xproto.XID // desktop, root, or holder panel window
}

// Window returns the icon's top window.
func (ic *Icon) Window() xproto.XID { return ic.tree.Window }

type objRef struct {
	client *Client
	screen *Screen
	obj    *objects.Object
	// corner is 1+cornerIndex for resize handles (0 = not a handle).
	corner int
	// menu is set when the object belongs to a popped-up menu.
	menu *Menu
	// holder is set for icon-holder container objects.
	holder *IconHolder
	// rootIcon is set for root icon objects.
	rootIcon *rootIcon
}

type moveState struct {
	client    *Client
	offsetX   int // pointer offset within frame at grab time
	offsetY   int
	viaPanner bool
}

type promptState struct {
	inv bindings.Invocation
	// oneShot prompts for a single window (swmcmd f.raise); otherwise
	// the prompt repeats until cancelled (f.raise(multiple)).
	oneShot bool
}

// FuncContext is what a window-manager function invocation sees.
type FuncContext struct {
	Client *Client
	Screen *Screen
	Event  xproto.Event
}

type funcImpl func(wm *WM, ctx *FuncContext, inv bindings.Invocation) error

// New connects to the server and initializes the window manager on all
// screens: it selects SubstructureRedirect on each root (failing if
// another WM runs), loads configuration, creates the Virtual Desktop,
// panner, scrollbars, root panels, icon holders and root icons, reads
// the session hint table, and adopts pre-existing client windows.
func New(server *xserver.Server, opts Options) (*WM, error) {
	if opts.DB == nil {
		db, err := templates.Load(templates.Default)
		if err != nil {
			return nil, err
		}
		opts.DB = db
	}
	wm := &WM{
		server:   server,
		conn:     server.Connect("swm"),
		db:       opts.DB,
		opts:     opts,
		clients:  make(map[xproto.XID]*Client),
		byFrame:  make(map[xproto.XID]*Client),
		byObjWin: make(map[xproto.XID]objRef),
	}
	// Observability: one registry + trace per WM, instruments resolved
	// once here and never looked up again (see metrics.go). The trace
	// starts disabled; swmcmd or tests enable it on demand.
	reg := obs.NewRegistry()
	trace := obs.NewTrace(traceCap)
	m := newWMMetrics(reg, trace)
	wm.metrics = m
	wm.deg = degrade.New("swm").Observe(reg, trace)
	wm.conn.SetInstrument(m)
	wm.conn.SetErrorHandler(m.noteXError)
	server.SetLockObserver(m)

	for _, srvScr := range server.Screens() {
		scr := &Screen{
			wm:         wm,
			Num:        srvScr.Number,
			Root:       srvScr.Root,
			Width:      srvScr.Width,
			Height:     srvScr.Height,
			Monochrome: srvScr.Monochrome,
		}
		err := wm.conn.SelectInput(scr.Root,
			xproto.SubstructureRedirectMask|xproto.SubstructureNotifyMask|
				xproto.PropertyChangeMask|xproto.KeyPressMask|
				xproto.ButtonPressMask|xproto.ButtonReleaseMask)
		if err != nil {
			wm.conn.Close()
			return nil, fmt.Errorf("core: another window manager is running on screen %d: %w", scr.Num, err)
		}
		wm.screens = append(wm.screens, scr)
	}

	// Session hints (paper §7): swmhints records accumulate on the
	// first screen's root; read them into the restart table.
	wm.loadHintTable()
	if v, ok := wm.ctx(wm.screens[0]).LookupGlobal("remoteStart"); ok {
		wm.remoteFormat = v
	}

	for _, scr := range wm.screens {
		if err := wm.setupScreen(scr); err != nil {
			wm.conn.Close()
			return nil, err
		}
	}

	// Adopt clients that existed before the WM started (e.g. rescued by
	// a previous WM's save-set during f.restart).
	for _, scr := range wm.screens {
		wm.adoptExisting(scr)
	}
	wm.flushRedraw()
	return wm, nil
}

// Conn exposes the WM's server connection (examples and tests use it
// for rendering).
func (wm *WM) Conn() *xserver.Conn { return wm.conn }

// DB returns the active resource database.
func (wm *WM) DB() *xrdb.DB { return wm.db }

// Screens returns the managed screens.
func (wm *WM) Screens() []*Screen { return wm.screens }

// Clients returns all managed clients (including internal ones) in
// unspecified order.
func (wm *WM) Clients() []*Client {
	out := make([]*Client, 0, len(wm.clients))
	for _, c := range wm.clients {
		out = append(out, c)
	}
	return out
}

// ClientOf looks up the managed client for a client window.
func (wm *WM) ClientOf(win xproto.XID) (*Client, bool) {
	c, ok := wm.clients[win]
	return c, ok
}

// LastPlaces returns the output of the most recent f.places execution.
func (wm *WM) LastPlaces() string { return wm.lastPlaces }

// QuitRequested reports whether f.quit ran.
func (wm *WM) QuitRequested() bool { return wm.quitRequested }

// RestartRequested reports whether f.restart ran.
func (wm *WM) RestartRequested() bool { return wm.restartRequested }

func (wm *WM) logf(format string, args ...any) {
	if wm.opts.Log != nil {
		fmt.Fprintf(wm.opts.Log, "swm: "+format+"\n", args...)
	}
}

// ctx builds the resource lookup context for a screen (no client
// prefixes).
func (wm *WM) ctx(scr *Screen) *objects.Context {
	return &objects.Context{DB: wm.db, ScreenNum: scr.Num, Monochrome: scr.Monochrome}
}

// clientCtx builds the lookup context for a client, inserting the
// "shaped" and "sticky" prefixes the paper describes (§5.1, §6.2).
func (wm *WM) clientCtx(scr *Screen, shaped, sticky bool) *objects.Context {
	c := wm.ctx(scr)
	if shaped {
		c.Prefixes = append(c.Prefixes, "shaped")
	}
	if sticky {
		c.Prefixes = append(c.Prefixes, "sticky")
	}
	return c
}

// setupScreen creates the per-screen furniture.
func (wm *WM) setupScreen(scr *Screen) error {
	ctx := wm.ctx(scr)

	// Root bindings.
	if v, ok := ctx.Lookup(objects.KindPanel, "root", "bindings"); ok {
		if t, err := bindings.Parse(v); err == nil {
			scr.rootBindings = t
		} else {
			wm.logf("root bindings: %v", err)
		}
	} else if v, ok := ctx.LookupGlobal("root", "bindings"); ok {
		if t, err := bindings.Parse(v); err == nil {
			scr.rootBindings = t
		}
	}
	if scr.rootBindings != nil {
		wm.grabRootBindings(scr)
	}

	// Virtual Desktop (§6).
	if wm.opts.VirtualDesktop {
		if err := wm.createDesktop(scr); err != nil {
			return err
		}
	}

	// Root panels (§4.1.4) listed in the rootPanels resource.
	if v, ok := ctx.LookupGlobal("rootPanels"); ok {
		for _, name := range strings.Fields(v) {
			if err := wm.createRootPanel(scr, name); err != nil {
				wm.logf("root panel %q: %v", name, err)
			}
		}
	}

	// Root icons (§4.1.3).
	if v, ok := ctx.LookupGlobal("rootIcons"); ok {
		for _, name := range strings.Fields(v) {
			if err := wm.createRootIcon(scr, name); err != nil {
				wm.logf("root icon %q: %v", name, err)
			}
		}
	}

	// Icon holders (§4.1.5).
	if v, ok := ctx.LookupGlobal("iconHolders"); ok {
		for _, name := range strings.Fields(v) {
			if err := wm.createIconHolder(scr, name); err != nil {
				wm.logf("icon holder %q: %v", name, err)
			}
		}
	}

	// Panner (§6.1) requires the Virtual Desktop.
	if wm.opts.VirtualDesktop && wm.opts.EnablePanner {
		if err := wm.createPanner(scr); err != nil {
			return err
		}
	}
	if wm.opts.VirtualDesktop && wm.opts.EnableScrollbars {
		if err := wm.createScrollbars(scr); err != nil {
			return err
		}
	}
	return nil
}

// grabRootBindings establishes passive grabs for root-level bindings so
// they fire regardless of what window the pointer is over.
func (wm *WM) grabRootBindings(scr *Screen) {
	for _, b := range scr.rootBindings.Bindings {
		switch b.Event {
		case xproto.ButtonPress, xproto.ButtonRelease:
			mods := b.Modifiers
			if b.AnyModifier {
				mods = xproto.AnyModifier
			}
			if err := wm.conn.GrabButton(scr.Root, b.Button, mods,
				xproto.ButtonPressMask|xproto.ButtonReleaseMask); err != nil {
				wm.logf("grab button %d: %v", b.Button, err)
			}
		case xproto.KeyPress:
			mods := b.Modifiers
			if b.AnyModifier {
				mods = xproto.AnyModifier
			}
			if err := wm.conn.GrabKey(scr.Root, b.Keysym, mods); err != nil {
				wm.logf("grab key %s: %v", b.Keysym, err)
			}
		}
	}
}

// ownsWindow reports whether the window is part of WM furniture
// (desktop, frames, icons, panner content, scrollbars).
func (wm *WM) ownsWindow(id xproto.XID) bool {
	if _, ok := wm.byFrame[id]; ok {
		return true
	}
	if _, ok := wm.byObjWin[id]; ok {
		return true
	}
	for _, scr := range wm.screens {
		if id == scr.Desktop || id == scr.hscroll || id == scr.vscroll {
			return true
		}
		if scr.panner != nil && id == scr.panner.content {
			return true
		}
	}
	return false
}

// loadHintTable reads SWM_HINTS from the first root.
func (wm *WM) loadHintTable() {
	root := wm.screens[0].Root
	prop, ok, err := wm.conn.GetProperty(root, wm.conn.InternAtom("SWM_HINTS"))
	if err != nil || !ok {
		wm.hintTable, _ = session.NewTable("")
		return
	}
	tbl, bad := session.NewTable(string(prop.Data))
	if bad > 0 {
		wm.logf("%d malformed swmhints records ignored", bad)
		wm.metrics.badHints.Add(int64(bad))
	}
	wm.hintTable = tbl
	// Consume the property so a later swm restart starts fresh.
	wm.check(nil, "consume SWM_HINTS", wm.conn.DeleteProperty(root, wm.conn.InternAtom("SWM_HINTS")))
}

// Pump synchronously processes all pending events and returns how many
// were handled, then settles coalesced redraw work (panner sync,
// scrollbar labels) once for the whole burst. Deterministic driver for
// tests and benchmarks.
func (wm *WM) Pump() int {
	start := time.Now()
	wm.sweepOrphans()
	n := 0
	for {
		ev, ok := wm.conn.PollEvent()
		if !ok {
			break
		}
		wm.handleEvent(ev)
		n++
	}
	wm.flushRedraw()
	wm.metrics.pumpCycles.Inc()
	wm.metrics.pumpNs.Observe(time.Since(start).Nanoseconds())
	return n
}

// Run processes events until f.quit or f.restart executes (or the
// connection closes). It returns true if a restart was requested.
func (wm *WM) Run() (restart bool) {
	for !wm.quitRequested && !wm.restartRequested {
		ev, ok := wm.conn.WaitEvent()
		if !ok {
			return false
		}
		// One pump cycle: the blocking event plus the rest of its burst,
		// drained before settling redraw work, so a storm of
		// motion/configure events costs one panner sync rather than one
		// per event. The cycle timer starts after WaitEvent — blocked
		// idle time is not pump latency.
		start := time.Now()
		wm.handleEvent(ev)
		for !wm.quitRequested && !wm.restartRequested {
			ev, ok := wm.conn.PollEvent()
			if !ok {
				break
			}
			wm.handleEvent(ev)
		}
		wm.sweepOrphans()
		wm.flushRedraw()
		wm.metrics.pumpCycles.Inc()
		wm.metrics.pumpNs.Observe(time.Since(start).Nanoseconds())
	}
	return wm.restartRequested
}

// flushRedraw settles dirty redraw state: at most one panner sync and
// one viewport/scrollbar refresh per screen, regardless of how many
// events marked them since the last flush.
func (wm *WM) flushRedraw() {
	for _, scr := range wm.screens {
		synced := false
		if scr.pannerDirty {
			scr.pannerDirty = false
			wm.syncPanner(scr)
			synced = true
		}
		if scr.viewDirty {
			scr.viewDirty = false
			// syncPanner already repositioned the viewport outline.
			if !synced {
				wm.updatePannerViewport(scr)
			}
			wm.updateScrollbars(scr)
		}
	}
}

// Shutdown releases all clients: each client window is reparented back
// to its screen's root at its current root-relative position and
// remains mapped, then the WM connection closes (triggering save-set
// semantics for anything missed). The paper's f.restart depends on
// clients surviving this.
func (wm *WM) Shutdown() {
	for _, c := range wm.Clients() {
		if c.isRootPanel || c.isPanner {
			continue
		}
		rx, ry := wm.clientRootPos(c)
		if !wm.check(c, "shutdown: reparent to root", wm.conn.ReparentWindow(c.Win, c.scr.Root, rx, ry)) {
			continue
		}
		wm.check(c, "shutdown: remap", wm.conn.MapWindow(c.Win))
	}
	wm.conn.Close()
}

// Close is the symmetric teardown for New: it releases clients the way
// Shutdown does, closes the connection (destroying every WM-owned
// server window via save-set semantics), and drops all retained state —
// client maps, orphan list, focus, interaction state — so a stopped WM
// pins neither server resources nor heap. It is idempotent. The
// decoration prototypes belong to the resource database, not the WM:
// they outlive Close so a restart on the same database reuses them, and
// go when the database changes or is dropped.
//
// Close must not run concurrently with Run or Pump: like every WM
// method it belongs to the event-loop goroutine. To stop a Run blocked
// on another goroutine, close the connection (Conn().Close(), which
// makes Run return once the queue drains) or execute f.quit, join, then
// Close. Fleet sessions run Close under the session's lane for
// exactly this reason.
func (wm *WM) Close() {
	if wm.closed {
		return
	}
	wm.closed = true
	// Retry orphaned WM windows while the connection can still issue
	// requests; whatever fails here is covered by connection teardown.
	wm.sweepOrphans()
	wm.Shutdown()

	for k := range wm.clients {
		delete(wm.clients, k)
	}
	for k := range wm.byFrame {
		delete(wm.byFrame, k)
	}
	for k := range wm.byObjWin {
		delete(wm.byObjWin, k)
	}
	wm.orphans = nil
	wm.focus = nil
	wm.moveState = nil
	wm.resizing = nil
	wm.prompt = nil
	for _, scr := range wm.screens {
		scr.rootPanels = nil
		scr.rootIcons = nil
		scr.holders = nil
		scr.menus = nil
		scr.panner = nil
		scr.extraDesktops = nil
	}
}

// FrameWindow returns the client's decoration frame window.
func (c *Client) FrameWindow() xproto.XID {
	if c.frame == nil {
		return xproto.None
	}
	return c.frame.Window
}

// Frame exposes the decoration object tree (examples and tests).
func (c *Client) Frame() *objects.Object { return c.frame }

// IconWindow returns the icon's top window, or None when no icon
// exists.
func (c *Client) IconWindow() xproto.XID {
	if c.icon == nil {
		return xproto.None
	}
	return c.icon.Window()
}

// Decoration reports the decoration panel name in use.
func (c *Client) Decoration() string { return c.decoration }

// IsInternal reports whether the client is WM furniture (a root panel
// or the panner) rather than a user application.
func (c *Client) IsInternal() bool { return c.isRootPanel || c.isPanner }
