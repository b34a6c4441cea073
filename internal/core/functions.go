package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bindings"
	"repro/internal/icccm"
	"repro/internal/session"
	"repro/internal/xproto"
)

// funcs is the window-manager function table (paper §4.2). Functions
// are dispatched by name from object bindings and from the swmcmd
// property protocol. Each entry says what the function takes from its
// context (ctxKind). The table is the same for every WM, so it is
// built once per process and never written after.
var funcs = map[string]funcEntry{
	"f.raise":          {fRaise, ctxTarget},
	"f.lower":          {fLower, ctxTarget},
	"f.iconify":        {fIconify, ctxTarget},
	"f.deiconify":      {fDeiconify, ctxTarget},
	"f.move":           {fMove, ctxTarget},
	"f.resize":         {fResize, ctxTarget},
	"f.zoom":           {fZoom, ctxTarget},
	"f.save":           {fSave, ctxTarget},
	"f.restore":        {fRestore, ctxTarget},
	"f.stick":          {fStick, ctxTarget},
	"f.unstick":        {fUnstick, ctxTarget},
	"f.focus":          {fFocus, ctxTarget},
	"f.delete":         {fDelete, ctxTarget},
	"f.destroy":        {fDestroy, ctxTarget},
	"f.warpvertical":   {fWarpVertical, ctxNone},
	"f.warphorizontal": {fWarpHorizontal, ctxNone},
	"f.panvertical":    {fPanVertical, ctxNone},
	"f.panhorizontal":  {fPanHorizontal, ctxNone},
	"f.pangoto":        {fPanGoto, ctxNone},
	"f.places":         {fPlaces, ctxNone},
	"f.quit":           {fQuit, ctxNone},
	"f.restart":        {fRestart, ctxNone},
	"f.refresh":        {fRefresh, ctxNone},
	"f.circleup":       {fCircleUp, ctxNone},
	"f.circledown":     {fCircleDown, ctxNone},
	"f.menu":           {fMenu, ctxClient},
	"f.setlabel":       {fSetLabel, ctxClient},
	"f.setbindings":    {fSetBindings, ctxClient},
	"f.nop":            {fNop, ctxNone},
	"f.selectdesktop":  {fSelectDesktop, ctxNone},
	"f.sendtodesktop":  {fSendToDesktop, ctxClient},
	"f.nextdesktop":    {fNextDesktop, ctxNone},
}

// funcEntry is one function table entry: the implementation and what
// it takes from its FuncContext.
type funcEntry struct {
	impl funcImpl
	ctx  ctxKind
}

// ctxKind says what a function reads from its FuncContext besides the
// screen.
type ctxKind uint8

const (
	// ctxNone: the argument, if any, is a number or a name, and the
	// context client is never read.
	ctxNone ctxKind = iota
	// ctxClient: the argument is a parameter, and the function acts on
	// the context client when there is one (f.sendtodesktop needs
	// one; f.setlabel, f.setbindings and f.menu fall back to every
	// client or to none).
	ctxClient
	// ctxTarget: the argument is a window target (§4.2), and with no
	// argument the target is the context client.
	ctxTarget
)

// FunctionNames returns the names in the function table, sorted.
func FunctionNames() []string {
	names := make([]string, 0, len(funcs))
	for name := range funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Execute runs one invocation in the given context, resolving the
// invocation's target mode first (§4.2):
//
//	f.iconify            — the context window
//	f.iconify(multiple)  — prompt: applies to the next clicked window(s)
//	f.iconify(blob)      — every window whose class matches "blob"
//	f.iconify(#$)        — the window under the mouse
//	f.iconify(#0x1234)   — a specific window ID
func (wm *WM) Execute(ctx *FuncContext, inv bindings.Invocation) error {
	fn, ok := funcs[inv.Name]
	if !ok {
		return fmt.Errorf("core: unknown window manager function %q", inv.Name)
	}
	impl := fn.impl
	if fn.ctx != ctxTarget {
		return impl(wm, ctx, inv)
	}
	// f.resize(WxH) carries a size, not a window target.
	if inv.Name == "f.resize" && inv.HasArg && looksLikeSize(inv.Arg) {
		return impl(wm, ctx, inv)
	}
	tgt, err := bindings.ParseTarget(inv)
	if err != nil {
		return err
	}
	switch tgt.Mode {
	case bindings.TargetCurrent:
		if ctx.Client == nil {
			// No window in context (e.g. "swmcmd f.raise" typed into a
			// shell): prompt for one — "The pointer would be changed to
			// a question mark prompting you to select a window to be
			// raised" (paper §5).
			wm.prompt = &promptState{inv: bindings.Invocation{Name: inv.Name}, oneShot: true}
			return nil
		}
		return impl(wm, ctx, inv)
	case bindings.TargetUnderPointer:
		c := wm.clientUnderPointer()
		if c == nil {
			return fmt.Errorf("core: %s(#$): no client under pointer", inv.Name)
		}
		return impl(wm, &FuncContext{Client: c, Screen: c.scr, Event: ctx.Event}, inv)
	case bindings.TargetWindowID:
		c, ok := wm.clients[tgt.Window]
		if !ok {
			// Allow addressing by frame window too.
			if fc, fok := wm.byFrame[tgt.Window]; fok {
				c = fc
			} else {
				return fmt.Errorf("core: %s: window 0x%x is not managed", inv.Name, uint32(tgt.Window))
			}
		}
		return impl(wm, &FuncContext{Client: c, Screen: c.scr, Event: ctx.Event}, inv)
	case bindings.TargetClass:
		var firstErr error
		n := 0
		for _, c := range wm.Clients() {
			if c.Class.Class == tgt.Class || c.Class.Instance == tgt.Class {
				n++
				if err := impl(wm, &FuncContext{Client: c, Screen: c.scr, Event: ctx.Event}, inv); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
		if n == 0 {
			return fmt.Errorf("core: %s(%s): no windows of that class", inv.Name, tgt.Class)
		}
		return firstErr
	case bindings.TargetMultiple:
		// Prompt mode: remember the function; each subsequent client
		// click applies it until a different button cancels.
		wm.prompt = &promptState{inv: bindings.Invocation{Name: inv.Name}}
		return nil
	}
	return nil
}

// ExecuteString parses and executes a whitespace-separated function
// list ("f.save f.zoom"), the same form bindings and swmcmd use.
func (wm *WM) ExecuteString(ctx *FuncContext, src string) error {
	invs, err := bindings.ParseInvocations(src)
	if err != nil {
		return err
	}
	return wm.executeAll(ctx, invs)
}

// execCommand runs a function list sent from outside the WM (swmcmd
// over the SWM_COMMAND property or a transport's exec) on scr. Its
// context client is the client under the pointer, resolved once, and
// only when some invocation reads it: the query costs a QueryPointer
// and a walk up the window tree.
func (wm *WM) execCommand(scr *Screen, src string) error {
	invs, err := bindings.ParseInvocations(src)
	if err != nil {
		return err
	}
	ctx := &FuncContext{Screen: scr}
	for _, inv := range invs {
		if funcs[inv.Name].ctx != ctxNone {
			ctx.Client = wm.clientUnderPointer()
			break
		}
	}
	return wm.executeAll(ctx, invs)
}

// executeAll runs every invocation in ctx and returns the first error.
func (wm *WM) executeAll(ctx *FuncContext, invs []bindings.Invocation) error {
	var firstErr error
	for _, inv := range invs {
		if err := wm.Execute(ctx, inv); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// clientUnderPointer resolves the managed client owning the window under
// the mouse (walking up from the deepest window).
func (wm *WM) clientUnderPointer() *Client {
	info := wm.conn.QueryPointer()
	win := wm.conn.WindowAt(info.Screen, info.RootX, info.RootY)
	for win != xproto.None {
		if c, ok := wm.clients[win]; ok {
			return c
		}
		if c, ok := wm.byFrame[win]; ok {
			return c
		}
		if ref, ok := wm.byObjWin[win]; ok && ref.client != nil {
			return ref.client
		}
		_, parent, _, err := wm.conn.QueryTree(win)
		if err != nil {
			return nil
		}
		win = parent
	}
	return nil
}

func needClient(ctx *FuncContext, name string) (*Client, error) {
	if ctx.Client == nil {
		return nil, fmt.Errorf("core: %s: no client in context", name)
	}
	return ctx.Client, nil
}

// --- function implementations -------------------------------------------------

func fRaise(wm *WM, ctx *FuncContext, inv bindings.Invocation) error {
	c, err := needClient(ctx, inv.Name)
	if err != nil {
		return err
	}
	if c.State == xproto.IconicState && c.icon != nil {
		return wm.conn.RaiseWindow(c.icon.Window())
	}
	wm.markPannerRestack(c.scr)
	return wm.conn.RaiseWindow(c.frame.Window)
}

func fLower(wm *WM, ctx *FuncContext, inv bindings.Invocation) error {
	c, err := needClient(ctx, inv.Name)
	if err != nil {
		return err
	}
	if c.State == xproto.IconicState && c.icon != nil {
		return wm.conn.LowerWindow(c.icon.Window())
	}
	wm.markPannerRestack(c.scr)
	return wm.conn.LowerWindow(c.frame.Window)
}

func fIconify(wm *WM, ctx *FuncContext, inv bindings.Invocation) error {
	c, err := needClient(ctx, inv.Name)
	if err != nil {
		return err
	}
	if c.State == xproto.IconicState {
		return wm.Deiconify(c)
	}
	return wm.Iconify(c)
}

func fDeiconify(wm *WM, ctx *FuncContext, inv bindings.Invocation) error {
	c, err := needClient(ctx, inv.Name)
	if err != nil {
		return err
	}
	return wm.Deiconify(c)
}

// fMove starts an interactive move: the pointer is grabbed and the
// frame follows motion until the button is released.
func fMove(wm *WM, ctx *FuncContext, inv bindings.Invocation) error {
	c, err := needClient(ctx, inv.Name)
	if err != nil {
		return err
	}
	info := wm.conn.QueryPointer()
	px, py := info.RootX, info.RootY
	fx, fy := c.FrameRect.X, c.FrameRect.Y
	if !c.Sticky && c.scr.Desktop != xproto.None {
		fx -= c.scr.PanX
		fy -= c.scr.PanY
	}
	wm.moveState = &moveState{client: c, offsetX: px - fx, offsetY: py - fy}
	return wm.conn.GrabPointer(c.scr.Root,
		xproto.PointerMotionMask|xproto.ButtonReleaseMask|xproto.ButtonPressMask)
}

// fResize resizes the client. With a WxH argument it is direct
// (f.resize(300x200)); without, it grows/shrinks to the pointer
// position (simplified interactive resize).
func fResize(wm *WM, ctx *FuncContext, inv bindings.Invocation) error {
	c, err := needClient(ctx, inv.Name)
	if err != nil {
		return err
	}
	if inv.HasArg && strings.Contains(inv.Arg, "x") {
		parts := strings.SplitN(inv.Arg, "x", 2)
		w, err1 := strconv.Atoi(parts[0])
		h, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil || w <= 0 || h <= 0 {
			return fmt.Errorf("core: f.resize: bad size %q", inv.Arg)
		}
		wm.resizeClient(c, w, h)
		return nil
	}
	info := wm.conn.QueryPointer()
	fx, fy := c.FrameRect.X, c.FrameRect.Y
	if !c.Sticky && c.scr.Desktop != xproto.None {
		fx -= c.scr.PanX
		fy -= c.scr.PanY
	}
	slotX, slotY := wm.clientSlotOffset(c)
	w := info.RootX - fx - slotX
	h := info.RootY - fy - slotY
	if w < 8 {
		w = 8
	}
	if h < 8 {
		h = 8
	}
	wm.resizeClient(c, w, h)
	return nil
}

// fZoom expands the window to the full size of the screen (§4.6's
// "f.save f.zoom" example: save the geometry first, then zoom).
func fZoom(wm *WM, ctx *FuncContext, inv bindings.Invocation) error {
	c, err := needClient(ctx, inv.Name)
	if err != nil {
		return err
	}
	scr := c.scr
	x, y := 0, 0
	if !c.Sticky && scr.Desktop != xproto.None {
		x, y = scr.PanX, scr.PanY
	}
	slotX, slotY := wm.clientSlotOffset(c)
	extraW := c.FrameRect.Width - c.clientW
	extraH := c.FrameRect.Height - c.clientH
	wm.moveFrame(c, x, y)
	wm.resizeClient(c, scr.Width-extraW, scr.Height-extraH)
	_ = slotX
	_ = slotY
	c.zoomed = true
	return nil
}

// fSave records the window's location and size for a later f.restore.
func fSave(wm *WM, ctx *FuncContext, inv bindings.Invocation) error {
	c, err := needClient(ctx, inv.Name)
	if err != nil {
		return err
	}
	c.savedRect = xproto.Rect{
		X: c.FrameRect.X, Y: c.FrameRect.Y,
		Width: c.clientW, Height: c.clientH,
	}
	c.hasSaved = true
	return nil
}

// fRestore puts the window back where f.save recorded it.
func fRestore(wm *WM, ctx *FuncContext, inv bindings.Invocation) error {
	c, err := needClient(ctx, inv.Name)
	if err != nil {
		return err
	}
	if !c.hasSaved {
		return nil
	}
	wm.resizeClient(c, c.savedRect.Width, c.savedRect.Height)
	wm.moveFrame(c, c.savedRect.X, c.savedRect.Y)
	c.zoomed = false
	return nil
}

func fStick(wm *WM, ctx *FuncContext, inv bindings.Invocation) error {
	c, err := needClient(ctx, inv.Name)
	if err != nil {
		return err
	}
	if c.Sticky {
		return wm.Unstick(c)
	}
	return wm.Stick(c)
}

func fUnstick(wm *WM, ctx *FuncContext, inv bindings.Invocation) error {
	c, err := needClient(ctx, inv.Name)
	if err != nil {
		return err
	}
	return wm.Unstick(c)
}

func fFocus(wm *WM, ctx *FuncContext, inv bindings.Invocation) error {
	c, err := needClient(ctx, inv.Name)
	if err != nil {
		return err
	}
	wm.focus = c
	return wm.conn.SetInputFocus(c.Win)
}

// fDelete asks the client to go away via WM_DELETE_WINDOW if it
// participates in the protocol, else kills its connection.
func fDelete(wm *WM, ctx *FuncContext, inv bindings.Invocation) error {
	c, err := needClient(ctx, inv.Name)
	if err != nil {
		return err
	}
	del, err := icccm.HasProtocol(wm.conn, c.Win, "WM_DELETE_WINDOW")
	wm.check(c, "read WM_PROTOCOLS", err)
	if del {
		return icccm.SendDeleteWindow(wm.conn, c.Win)
	}
	return wm.conn.KillClient(c.Win)
}

func fDestroy(wm *WM, ctx *FuncContext, inv bindings.Invocation) error {
	c, err := needClient(ctx, inv.Name)
	if err != nil {
		return err
	}
	return wm.conn.KillClient(c.Win)
}

// fWarpVertical moves the pointer vertically by the argument in pixels
// (the paper's f.warpvertical(-50) example).
func fWarpVertical(wm *WM, ctx *FuncContext, inv bindings.Invocation) error {
	n, err := numArg(inv)
	if err != nil {
		return err
	}
	info := wm.conn.QueryPointer()
	wm.conn.WarpPointer(info.RootX, info.RootY+n)
	return nil
}

func fWarpHorizontal(wm *WM, ctx *FuncContext, inv bindings.Invocation) error {
	n, err := numArg(inv)
	if err != nil {
		return err
	}
	info := wm.conn.QueryPointer()
	wm.conn.WarpPointer(info.RootX+n, info.RootY)
	return nil
}

func fPanVertical(wm *WM, ctx *FuncContext, inv bindings.Invocation) error {
	n, err := numArg(inv)
	if err != nil {
		return err
	}
	wm.PanBy(ctx.Screen, 0, n)
	return nil
}

func fPanHorizontal(wm *WM, ctx *FuncContext, inv bindings.Invocation) error {
	n, err := numArg(inv)
	if err != nil {
		return err
	}
	wm.PanBy(ctx.Screen, n, 0)
	return nil
}

// fPanGoto jumps the viewport to absolute desktop coordinates
// "x,y" — handy for implementing a rooms-style environment by binding
// quadrant jumps (§6: "it is very easy to implement a rooms like
// environment by grouping windows into various quadrants").
func fPanGoto(wm *WM, ctx *FuncContext, inv bindings.Invocation) error {
	if !inv.HasArg {
		return fmt.Errorf("core: f.pangoto requires x,y")
	}
	parts := strings.SplitN(inv.Arg, ",", 2)
	if len(parts) != 2 {
		return fmt.Errorf("core: f.pangoto: bad argument %q", inv.Arg)
	}
	x, err1 := strconv.Atoi(strings.TrimSpace(parts[0]))
	y, err2 := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err1 != nil || err2 != nil {
		return fmt.Errorf("core: f.pangoto: bad argument %q", inv.Arg)
	}
	wm.PanTo(ctx.Screen, x, y)
	return nil
}

// fPlaces writes the session restart file (paper §7): "The swm command
// f.places causes a file to be written which can be used as an .xinitrc
// replacement."
func fPlaces(wm *WM, ctx *FuncContext, inv bindings.Invocation) error {
	var records []session.ClientRecord
	for _, c := range wm.Clients() {
		if c.isRootPanel || c.isPanner || len(c.Command) == 0 || c.Transient != xproto.None {
			continue
		}
		records = append(records, session.ClientRecord{Hint: wm.hintFor(c)})
	}
	var sb strings.Builder
	if err := session.WritePlaces(&sb, records, wm.remoteFormat); err != nil {
		return err
	}
	wm.lastPlaces = sb.String()
	return nil
}

// hintFor captures a client's restorable state.
func (wm *WM) hintFor(c *Client) session.Hint {
	slotX, slotY := wm.clientSlotOffset(c)
	x := c.FrameRect.X + slotX
	y := c.FrameRect.Y + slotY
	h := session.Hint{
		Geometry: fmt.Sprintf("%dx%d%s%s", c.clientW, c.clientH, plus(x), plus(y)),
		State:    "NormalState",
		Sticky:   c.Sticky,
		Cmd:      session.CommandString(c.Command),
		Machine:  c.Machine,
	}
	if c.State == xproto.IconicState {
		h.State = "IconicState"
	}
	if c.hasIconPos {
		h.IconGeometry = fmt.Sprintf("%s%s", plus(c.iconX), plus(c.iconY))
		h.IconOnRoot = c.holder == nil
	}
	return h
}

func plus(v int) string {
	if v < 0 {
		return strconv.Itoa(v)
	}
	return "+" + strconv.Itoa(v)
}

func fQuit(wm *WM, ctx *FuncContext, inv bindings.Invocation) error {
	wm.quitRequested = true
	return nil
}

func fRestart(wm *WM, ctx *FuncContext, inv bindings.Invocation) error {
	wm.restartRequested = true
	return nil
}

func fRefresh(wm *WM, ctx *FuncContext, inv bindings.Invocation) error {
	// On a real server this forces exposure of every window; our model
	// repaints implicitly, so refresh just touches the panner.
	for _, scr := range wm.screens {
		wm.markPannerDirty(scr)
		wm.markViewDirty(scr)
	}
	return nil
}

// fCircleUp raises the lowest client above the others (XCirculate-like
// window rotation).
func fCircleUp(wm *WM, ctx *FuncContext, inv bindings.Invocation) error {
	scr := ctx.Screen
	frames := wm.stackedFrames(scr)
	if len(frames) < 2 {
		return nil
	}
	wm.markPannerRestack(scr)
	return wm.conn.RaiseWindow(frames[0])
}

func fCircleDown(wm *WM, ctx *FuncContext, inv bindings.Invocation) error {
	scr := ctx.Screen
	frames := wm.stackedFrames(scr)
	if len(frames) < 2 {
		return nil
	}
	wm.markPannerRestack(scr)
	return wm.conn.LowerWindow(frames[len(frames)-1])
}

// stackedFrames lists managed frame windows bottom-to-top on a screen.
func (wm *WM) stackedFrames(scr *Screen) []xproto.XID {
	parents := []xproto.XID{scr.Root}
	if scr.Desktop != xproto.None {
		parents = append(parents, scr.Desktop)
	}
	var out []xproto.XID
	for _, p := range parents {
		_, _, children, err := wm.conn.QueryTree(p)
		if err != nil {
			continue
		}
		for _, ch := range children {
			if _, ok := wm.byFrame[ch]; ok {
				out = append(out, ch)
			}
		}
	}
	return out
}

// fSetLabel dynamically changes an object's appearance (§4.5; the
// swmcmd interface "could also be used for things such as changing the
// shape of a button to indicate the status of a process"). Argument
// form: objectName=newLabel.
func fSetLabel(wm *WM, ctx *FuncContext, inv bindings.Invocation) error {
	if !inv.HasArg || !strings.Contains(inv.Arg, "=") {
		return fmt.Errorf("core: f.setlabel requires object=label")
	}
	parts := strings.SplitN(inv.Arg, "=", 2)
	objName, label := parts[0], parts[1]
	found := false
	apply := func(c *Client) {
		if o := c.frame.Find(objName); o != nil {
			o.SetLabel(label)
			wm.relayoutFrame(c)
			found = true
		}
	}
	if ctx.Client != nil {
		apply(ctx.Client)
	} else {
		for _, c := range wm.Clients() {
			apply(c)
		}
	}
	if !found {
		return fmt.Errorf("core: f.setlabel: no object named %q", objName)
	}
	return nil
}

// fSetBindings swaps an object's bindings at run time:
// f.setbindings(objectName=<Btn1>:f.lower).
func fSetBindings(wm *WM, ctx *FuncContext, inv bindings.Invocation) error {
	if !inv.HasArg || !strings.Contains(inv.Arg, "=") {
		return fmt.Errorf("core: f.setbindings requires object=bindings")
	}
	parts := strings.SplitN(inv.Arg, "=", 2)
	objName, src := parts[0], parts[1]
	tbl, err := bindings.Parse(src)
	if err != nil {
		return err
	}
	found := false
	apply := func(c *Client) {
		if o := c.frame.Find(objName); o != nil {
			o.SetBindings(tbl)
			found = true
		}
	}
	if ctx.Client != nil {
		apply(ctx.Client)
	} else {
		for _, c := range wm.Clients() {
			apply(c)
		}
	}
	if !found {
		return fmt.Errorf("core: f.setbindings: no object named %q", objName)
	}
	return nil
}

func fNop(wm *WM, ctx *FuncContext, inv bindings.Invocation) error { return nil }

// looksLikeSize reports whether the argument has the WxH form.
func looksLikeSize(arg string) bool {
	i := strings.IndexByte(arg, 'x')
	if i <= 0 || i == len(arg)-1 {
		return false
	}
	for _, part := range []string{arg[:i], arg[i+1:]} {
		for j := 0; j < len(part); j++ {
			if part[j] < '0' || part[j] > '9' {
				return false
			}
		}
	}
	return true
}

func numArg(inv bindings.Invocation) (int, error) {
	if !inv.HasArg {
		return 0, fmt.Errorf("core: %s requires a numeric argument", inv.Name)
	}
	n, err := strconv.Atoi(strings.TrimSpace(inv.Arg))
	if err != nil {
		return 0, fmt.Errorf("core: %s: bad argument %q", inv.Name, inv.Arg)
	}
	return n, nil
}
