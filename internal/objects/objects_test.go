package objects

import (
	"testing"

	"repro/internal/xproto"
	"repro/internal/xrdb"
	"repro/internal/xserver"
)

// The paper's OpenLook+ decoration definition (Figure 1).
const openLookDef = `button pulldown +0+0
button name +C+0
button nail -0+0
panel client +0+1`

func newCtx(t *testing.T, resources string) *Context {
	t.Helper()
	db := xrdb.New()
	if err := db.LoadString(resources); err != nil {
		t.Fatal(err)
	}
	return &Context{DB: db, ScreenNum: 0}
}

func TestParsePanelDefOpenLook(t *testing.T) {
	def, err := ParsePanelDef("openLook", openLookDef)
	if err != nil {
		t.Fatal(err)
	}
	if len(def.Items) != 4 {
		t.Fatalf("got %d items, want 4", len(def.Items))
	}
	if def.Items[0].Kind != KindButton || def.Items[0].Name != "pulldown" {
		t.Errorf("item 0: %+v", def.Items[0])
	}
	if !def.Items[1].Pos.ColCentered {
		t.Error("name button should be centered")
	}
	if !def.Items[2].Pos.ColFromRight {
		t.Error("nail button should be right-anchored")
	}
	if def.Items[3].Kind != KindPanel || def.Items[3].Name != "client" || def.Items[3].Pos.Row != 1 {
		t.Errorf("item 3: %+v", def.Items[3])
	}
}

func TestParsePanelDefErrors(t *testing.T) {
	if _, err := ParsePanelDef("x", ""); err == nil {
		t.Error("empty definition accepted")
	}
	if _, err := ParsePanelDef("x", "button foo"); err == nil {
		t.Error("non-triple definition accepted")
	}
	if _, err := ParsePanelDef("x", "gadget foo +0+0"); err == nil {
		t.Error("unknown object type accepted")
	}
	if _, err := ParsePanelDef("x", "button foo nowhere"); err == nil {
		t.Error("bad position accepted")
	}
}

func TestBuildOpenLookTree(t *testing.T) {
	ctx := newCtx(t, `Swm*panel.openLook: \
	button pulldown +0+0 \
	button name +C+0 \
	button nail -0+0 \
	panel client +0+1
`)
	root, err := Build(ctx, "openLook")
	if err != nil {
		t.Fatal(err)
	}
	if len(root.Children) != 4 {
		t.Fatalf("children = %d, want 4", len(root.Children))
	}
	if root.Find("client") == nil {
		t.Error("client slot missing")
	}
	if root.Find("nail") == nil {
		t.Error("nail button missing")
	}
}

func TestBuildMissingPanel(t *testing.T) {
	ctx := newCtx(t, "")
	if _, err := Build(ctx, "nosuch"); err == nil {
		t.Error("missing panel definition accepted")
	}
}

func TestBuildRecursivePanelRejected(t *testing.T) {
	ctx := newCtx(t, `Swm*panel.loop: panel loop +0+0
`)
	if _, err := Build(ctx, "loop"); err == nil {
		t.Error("recursive panel definition accepted")
	}
}

func TestBuildNestedPanel(t *testing.T) {
	ctx := newCtx(t, `Swm*panel.outer: \
	panel inner +0+0 \
	button b +0+1
Swm*panel.inner: \
	button x +0+0 \
	button y +1+0
`)
	root, err := Build(ctx, "outer")
	if err != nil {
		t.Fatal(err)
	}
	inner := root.Find("inner")
	if inner == nil || len(inner.Children) != 2 {
		t.Fatalf("inner panel not expanded: %+v", inner)
	}
}

func TestAttributesFromResources(t *testing.T) {
	ctx := newCtx(t, `Swm*panel.p: button foo +0+0
swm*button.foo.foreground: white
swm*button.foo.background: steelblue
swm*button.foo.font: fixed
swm*button.foo.label: OK
swm*button.foo.bindings: <Btn1> : f.raise
`)
	root, err := Build(ctx, "p")
	if err != nil {
		t.Fatal(err)
	}
	foo := root.Find("foo")
	if foo.Attrs.Foreground != "white" || foo.Attrs.Background != "steelblue" || foo.Attrs.Font != "fixed" {
		t.Errorf("attrs = %+v", foo.Attrs)
	}
	if foo.Label() != "OK" {
		t.Errorf("label = %q, want resource override", foo.Label())
	}
	if foo.Bindings == nil {
		t.Fatal("bindings not loaded")
	}
	if got := foo.Bindings.Lookup(xproto.ButtonPress, 1, xproto.NoSymbol, 0); got == nil || got[0].Name != "f.raise" {
		t.Errorf("bindings lookup = %v", got)
	}
}

func TestLabelDefaultsToName(t *testing.T) {
	ctx := newCtx(t, "Swm*panel.p: button quit +0+0\n")
	root, _ := Build(ctx, "p")
	if root.Find("quit").Label() != "quit" {
		t.Errorf("label = %q", root.Find("quit").Label())
	}
}

func TestPerScreenAttribute(t *testing.T) {
	db := xrdb.New()
	db.MustPut("Swm*panel.p", "button b +0+0")
	db.MustPut("swm*button.b.foreground", "black")
	db.MustPut("swm.monochrome.screen1.button.b.foreground", "white")
	ctx0 := &Context{DB: db, ScreenNum: 0}
	ctx1 := &Context{DB: db, ScreenNum: 1, Monochrome: true}
	r0, err := Build(ctx0, "p")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Build(ctx1, "p")
	if err != nil {
		t.Fatal(err)
	}
	if r0.Find("b").Attrs.Foreground != "black" {
		t.Errorf("screen0 fg = %q", r0.Find("b").Attrs.Foreground)
	}
	if r1.Find("b").Attrs.Foreground != "white" {
		t.Errorf("screen1 fg = %q (per-screen resource ignored)", r1.Find("b").Attrs.Foreground)
	}
}

// --- layout ---

func buildOpenLook(t *testing.T) *Object {
	t.Helper()
	ctx := newCtx(t, `Swm*panel.openLook: \
	button pulldown +0+0 \
	button name +C+0 \
	button nail -0+0 \
	panel client +0+1
`)
	root, err := Build(ctx, "openLook")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func TestLayoutOpenLookDecoration(t *testing.T) {
	root := buildOpenLook(t)
	w, h := Layout(root, 300, 200)
	if w != 300 {
		t.Errorf("panel width = %d, want the client width 300", w)
	}
	client := root.Find("client")
	if client.Rect.Width != 300 || client.Rect.Height != 200 {
		t.Errorf("client rect = %v", client.Rect)
	}
	pulldown := root.Find("pulldown")
	name := root.Find("name")
	nail := root.Find("nail")
	// Row 0: pulldown at left edge.
	if pulldown.Rect.X != 0 {
		t.Errorf("pulldown x = %d, want 0", pulldown.Rect.X)
	}
	// Nail flush against the right edge.
	if nail.Rect.X+nail.Rect.Width != w {
		t.Errorf("nail right edge = %d, want %d", nail.Rect.X+nail.Rect.Width, w)
	}
	// Name centered within the titlebar.
	center := name.Rect.X + name.Rect.Width/2
	if center < w/2-CharWidth || center > w/2+CharWidth {
		t.Errorf("name center = %d, want ~%d", center, w/2)
	}
	// Client row below the titlebar row.
	if client.Rect.Y <= pulldown.Rect.Y {
		t.Error("client row not below titlebar row")
	}
	// Total height covers both rows.
	titleH := pulldown.Rect.Height
	if h < titleH+200 {
		t.Errorf("panel height = %d, want >= %d", h, titleH+200)
	}
}

func TestLayoutRootPanelGrid(t *testing.T) {
	// The paper's RootPanel: 4 columns x 2 rows of buttons (Figure 2).
	ctx := newCtx(t, `Swm*panel.RootPanel: \
	button quit +0+0 \
	button restart +1+0 \
	button iconify +2+0 \
	button deiconify +3+0 \
	button move +0+1 \
	button resize +1+1 \
	button raise +2+1 \
	button lower +3+1
`)
	root, err := Build(ctx, "RootPanel")
	if err != nil {
		t.Fatal(err)
	}
	w, h := Layout(root, 0, 0)
	if w <= 0 || h <= 0 {
		t.Fatalf("degenerate layout %dx%d", w, h)
	}
	quit := root.Find("quit")
	restart := root.Find("restart")
	move := root.Find("move")
	if quit.Rect.Y != move.Rect.Y-quit.Rect.Height-RowGap {
		t.Errorf("rows not stacked: quit.y=%d move.y=%d", quit.Rect.Y, move.Rect.Y)
	}
	if restart.Rect.X != quit.Rect.X+quit.Rect.Width {
		t.Errorf("columns not packed: quit=%v restart=%v", quit.Rect, restart.Rect)
	}
	// Column order follows the column index.
	names := []string{"quit", "restart", "iconify", "deiconify"}
	lastX := -1
	for _, n := range names {
		o := root.Find(n)
		if o.Rect.X <= lastX {
			t.Errorf("column order broken at %s (x=%d after %d)", n, o.Rect.X, lastX)
		}
		lastX = o.Rect.X
	}
}

func TestLayoutButtonNaturalSize(t *testing.T) {
	ctx := newCtx(t, "Swm*panel.p: button iconify +0+0\n")
	root, _ := Build(ctx, "p")
	Layout(root, 0, 0)
	b := root.Find("iconify")
	wantW := CharWidth*len("iconify") + 2*ObjectPadX
	if b.Rect.Width != wantW {
		t.Errorf("button width = %d, want %d", b.Rect.Width, wantW)
	}
	if b.Rect.Height != CharHeight+2*ObjectPadY {
		t.Errorf("button height = %d", b.Rect.Height)
	}
}

func TestLayoutRelabelChangesSize(t *testing.T) {
	ctx := newCtx(t, "Swm*panel.p: button st +0+0\n")
	root, _ := Build(ctx, "p")
	Layout(root, 0, 0)
	w1 := root.Find("st").Rect.Width
	root.Find("st").SetLabel("a much longer label")
	Layout(root, 0, 0)
	w2 := root.Find("st").Rect.Width
	if w2 <= w1 {
		t.Errorf("width did not grow after relabel: %d -> %d", w1, w2)
	}
}

func TestLayoutDecorationBelowAndSide(t *testing.T) {
	// "Objects can easily be placed to the sides or below the client
	// window in addition to the more traditional titlebar appearance."
	ctx := newCtx(t, `Swm*panel.sideways: \
	button side +0+0 \
	panel client +1+0 \
	button below +C+1
`)
	root, err := Build(ctx, "sideways")
	if err != nil {
		t.Fatal(err)
	}
	Layout(root, 120, 80)
	side := root.Find("side")
	client := root.Find("client")
	below := root.Find("below")
	if side.Rect.X+side.Rect.Width != client.Rect.X {
		t.Errorf("side button not left of client: side=%v client=%v", side.Rect, client.Rect)
	}
	if below.Rect.Y < client.Rect.Y+client.Rect.Height {
		t.Errorf("below button not below client: below=%v client=%v", below.Rect, client.Rect)
	}
}

func TestShapeRectsUnionOfChildren(t *testing.T) {
	root := buildOpenLook(t)
	Layout(root, 100, 60)
	rects := ShapeRects(root)
	if len(rects) != 4 {
		t.Fatalf("got %d shape rects, want 4", len(rects))
	}
	// Every child rect must appear.
	for _, c := range root.Children {
		found := false
		for _, r := range rects {
			if r == c.Rect {
				found = true
			}
		}
		if !found {
			t.Errorf("child %q rect %v missing from shape", c.Name, c.Rect)
		}
	}
}

// --- realization ---

func TestRealizeCreatesWindows(t *testing.T) {
	s := xserver.NewServer()
	conn := s.Connect("wm")
	root := buildOpenLook(t)
	Layout(root, 300, 200)
	if err := Realize(conn, root, s.Screens()[0].Root, 50, 60); err != nil {
		t.Fatal(err)
	}
	if root.Window == xproto.None {
		t.Fatal("root not realized")
	}
	g, err := conn.GetGeometry(root.Window)
	if err != nil {
		t.Fatal(err)
	}
	if g.Rect.X != 50 || g.Rect.Y != 60 {
		t.Errorf("frame at (%d,%d), want (50,60)", g.Rect.X, g.Rect.Y)
	}
	// All four children realized beneath the frame.
	_, _, children, _ := conn.QueryTree(root.Window)
	if len(children) != 4 {
		t.Errorf("frame has %d children, want 4", len(children))
	}
	// Buttons are mapped, the client slot is not (the WM reparents the
	// client window into it and maps then).
	attrs, _ := conn.GetWindowAttributes(root.Find("nail").Window)
	if attrs.MapState == xproto.IsUnmapped {
		t.Error("nail button unmapped")
	}
	attrs, _ = conn.GetWindowAttributes(root.Find("client").Window)
	if attrs.MapState != xproto.IsUnmapped {
		t.Error("client slot should stay unmapped")
	}
}

func TestRealizeSelectsInputForBoundObjects(t *testing.T) {
	s := xserver.NewServer()
	conn := s.Connect("wm")
	ctx := newCtx(t, `Swm*panel.p: button b +0+0
swm*button.b.bindings: <Btn1> : f.raise
`)
	root, _ := Build(ctx, "p")
	Layout(root, 0, 0)
	if err := Realize(conn, root, s.Screens()[0].Root, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := conn.MapWindow(root.Window); err != nil {
		t.Fatal(err)
	}
	b := root.Find("b")
	s.FakeMotion(b.Rect.X+2, b.Rect.Y+2)
	for {
		if _, ok := conn.PollEvent(); !ok {
			break
		}
	}
	s.FakeButtonPress(xproto.Button1, 0)
	var press bool
	for {
		ev, ok := conn.PollEvent()
		if !ok {
			break
		}
		if ev.Type == xproto.ButtonPress && ev.Window == b.Window {
			press = true
		}
	}
	if !press {
		t.Error("bound button did not receive ButtonPress")
	}
	s.FakeButtonRelease(xproto.Button1, 0)
}

func TestRealizeShapedPanel(t *testing.T) {
	s := xserver.NewServer()
	conn := s.Connect("wm")
	ctx := newCtx(t, `Swm*panel.shapeit: panel client +0+0
swm*panel.shapeit.shape: True
`)
	root, err := Build(ctx, "shapeit")
	if err != nil {
		t.Fatal(err)
	}
	Layout(root, 100, 100)
	if err := Realize(conn, root, s.Screens()[0].Root, 0, 0); err != nil {
		t.Fatal(err)
	}
	shaped, rects, err := conn.ShapeQuery(root.Window)
	if err != nil {
		t.Fatal(err)
	}
	if !shaped {
		t.Fatal("shapeit panel not shaped")
	}
	if len(rects) != 1 || rects[0].Width != 100 || rects[0].Height != 100 {
		t.Errorf("shape rects = %v", rects)
	}
}

func TestSyncGeometryAfterRelabel(t *testing.T) {
	s := xserver.NewServer()
	conn := s.Connect("wm")
	ctx := newCtx(t, "Swm*panel.p: button name +C+0\n")
	root, _ := Build(ctx, "p")
	Layout(root, 0, 0)
	if err := Realize(conn, root, s.Screens()[0].Root, 0, 0); err != nil {
		t.Fatal(err)
	}
	name := root.Find("name")
	name.SetLabel("xterm — /home/toml")
	Layout(root, 0, 0)
	if err := SyncGeometry(conn, root); err != nil {
		t.Fatal(err)
	}
	g, _ := conn.GetGeometry(name.Window)
	if g.Rect.Width != name.Rect.Width {
		t.Errorf("server width %d != layout width %d", g.Rect.Width, name.Rect.Width)
	}
}

func TestDestroyTearsDownTree(t *testing.T) {
	s := xserver.NewServer()
	conn := s.Connect("wm")
	root := buildOpenLook(t)
	Layout(root, 100, 100)
	if err := Realize(conn, root, s.Screens()[0].Root, 0, 0); err != nil {
		t.Fatal(err)
	}
	frameWin := root.Window
	if err := Destroy(conn, root); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.GetGeometry(frameWin); err == nil {
		t.Error("frame window survived Destroy")
	}
	if root.Window != xproto.None {
		t.Error("root.Window not cleared")
	}
}

func TestFindByWindow(t *testing.T) {
	s := xserver.NewServer()
	conn := s.Connect("wm")
	root := buildOpenLook(t)
	Layout(root, 100, 100)
	if err := Realize(conn, root, s.Screens()[0].Root, 0, 0); err != nil {
		t.Fatal(err)
	}
	nail := root.Find("nail")
	if got := FindByWindow(root, nail.Window); got != nail {
		t.Errorf("FindByWindow = %v", got)
	}
	if got := FindByWindow(root, 0xdeadbeef); got != nil {
		t.Errorf("phantom window found: %v", got)
	}
}

func TestContextPrefixes(t *testing.T) {
	// §5.1: shaped clients get "shaped" added to resource strings.
	db := xrdb.New()
	db.MustPut("swm*decoration", "openLook")
	db.MustPut("swm*shaped*decoration", "shapeit")
	plain := &Context{DB: db}
	shaped := &Context{DB: db, Prefixes: []string{"shaped"}}
	if v, _ := plain.LookupClient("OClock", "oclock", "decoration"); v != "openLook" {
		t.Errorf("plain decoration = %q", v)
	}
	if v, _ := shaped.LookupClient("OClock", "oclock", "decoration"); v != "shapeit" {
		t.Errorf("shaped decoration = %q", v)
	}
}

func TestLookupClientSpecificResource(t *testing.T) {
	// Full specific resource from the paper:
	// swm.monochrome.screen0.xclock.xclock.decoration: notitlepanel
	db := xrdb.New()
	db.MustPut("swm.monochrome.screen0.xclock.xclock.decoration", "notitlepanel")
	ctx := &Context{DB: db, ScreenNum: 0, Monochrome: true}
	v, ok := ctx.LookupClient("xclock", "xclock", "decoration")
	if !ok || v != "notitlepanel" {
		t.Errorf("got %q ok=%v", v, ok)
	}
	// A color screen must not match the monochrome resource.
	ctxColor := &Context{DB: db, ScreenNum: 0}
	if _, ok := ctxColor.LookupClient("xclock", "xclock", "decoration"); ok {
		t.Error("monochrome resource matched on color screen")
	}
}
