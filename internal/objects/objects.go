// Package objects implements swm's object system: the four basic
// objects — panel, button, text and menu — from which "an infinite
// number of window management policies can be implemented" (paper §4).
//
// Objects are arranged in hierarchies (panels contain rows of objects,
// including other panels), have attributes (color, font, cursor,
// bindings, shape mask) resolved through the X resource database, and
// are realized as windows on the simulated X server. Buttons can change
// appearance and bindings dynamically, which is how swm decorations
// reflect client state.
package objects

import (
	"fmt"
	"strings"

	"repro/internal/bindings"
	"repro/internal/geom"
	"repro/internal/xproto"
	"repro/internal/xrdb"
)

// Kind discriminates object types.
type Kind int

const (
	KindPanel Kind = iota
	KindButton
	KindText
	KindMenu
)

var kindNames = map[Kind]string{
	KindPanel:  "panel",
	KindButton: "button",
	KindText:   "text",
	KindMenu:   "menu",
}

func (k Kind) String() string { return kindNames[k] }

// ParseKind converts an object-type token from a panel definition.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(s) {
	case "panel":
		return KindPanel, nil
	case "button":
		return KindButton, nil
	case "text":
		return KindText, nil
	case "menu":
		return KindMenu, nil
	}
	return 0, fmt.Errorf("objects: unknown object type %q", s)
}

// Text metrics for the deterministic layout model. A real toolkit
// queries font extents; we fix a monospace cell so layouts (and the
// reproduced figures) are stable.
const (
	CharWidth    = 8
	CharHeight   = 14
	ObjectPadX   = 6
	ObjectPadY   = 3
	RowGap       = 1
	PanelBorder  = 1
	MinButtonWpx = 16
)

// Attributes are the per-object settings queried from the resource
// database when the object is created (paper §4.6).
type Attributes struct {
	Foreground string
	Background string
	Font       string
	Cursor     string
	// ShapeMask names a bitmap used as the object's shape; Shape=true on
	// a panel with no mask shapes it to contain its children (§5.1).
	ShapeMask string
	Shape     bool
	// Label overrides the displayed text (defaults to the object name).
	Label string
	// Image names a bitmap displayed in a button.
	Image string
}

// Object is one node of an object tree.
type Object struct {
	Kind     Kind
	Name     string
	Pos      geom.PanelPos
	Parent   *Object
	Children []*Object

	Attrs    Attributes
	Bindings *bindings.Table

	// Rect is the layout result, relative to the parent object.
	Rect xproto.Rect

	// Window is the realized server window (set by Realize).
	Window xproto.XID

	// label is the current display text; dynamic for buttons.
	label string
}

// Label returns the object's current display text.
func (o *Object) Label() string { return o.label }

// SetLabel changes the display text (dynamic button appearance, §4.5).
// The caller re-runs layout/realization to reflect size changes.
func (o *Object) SetLabel(s string) { o.label = s }

// SetBindings swaps the object's action bindings at runtime (§4.5:
// "buttons can not only dynamically change appearance, but they can
// also change functionality").
func (o *Object) SetBindings(t *bindings.Table) { o.Bindings = t }

// Clone returns a deep copy of the object tree rooted at o: fresh
// Object nodes with Parent links rewired into the copy and Window
// cleared (a clone is unrealized until Realize runs on it). The
// Bindings tables are shared — a parsed bindings.Table is read-only;
// runtime rebinding swaps the pointer via SetBindings, which affects
// only the one clone. This is what makes the decoration prototype
// cache sound: Build resolves a tree once per resource context and
// every managed client decorates from a Clone of it.
func (o *Object) Clone() *Object {
	return o.cloneInto(nil)
}

func (o *Object) cloneInto(parent *Object) *Object {
	c := &Object{
		Kind:     o.Kind,
		Name:     o.Name,
		Pos:      o.Pos,
		Parent:   parent,
		Attrs:    o.Attrs,
		Bindings: o.Bindings,
		Rect:     o.Rect,
		label:    o.label,
	}
	if len(o.Children) > 0 {
		c.Children = make([]*Object, 0, len(o.Children))
		for _, ch := range o.Children {
			c.Children = append(c.Children, ch.cloneInto(c))
		}
	}
	return c
}

// Find returns the descendant (or o itself) with the given name, or nil.
func (o *Object) Find(name string) *Object {
	if o.Name == name {
		return o
	}
	for _, c := range o.Children {
		if hit := c.Find(name); hit != nil {
			return hit
		}
	}
	return nil
}

// Walk visits o and all descendants depth-first.
func (o *Object) Walk(fn func(*Object)) {
	fn(o)
	for _, c := range o.Children {
		c.Walk(fn)
	}
}

// naturalSize returns the object's preferred size before row layout.
func (o *Object) naturalSize() (w, h int) {
	switch o.Kind {
	case KindButton, KindText, KindMenu:
		text := o.label
		w = CharWidth*len(text) + 2*ObjectPadX
		if w < MinButtonWpx {
			w = MinButtonWpx
		}
		h = CharHeight + 2*ObjectPadY
		return w, h
	case KindPanel:
		// Panels size from their laid-out children; Layout fills Rect.
		return o.Rect.Width, o.Rect.Height
	}
	return 0, 0
}

// --- Panel definitions -----------------------------------------------------

// ItemDef is one entry of a panel definition: object-type object-name
// position.
type ItemDef struct {
	Kind Kind
	Name string
	Pos  geom.PanelPos
}

// PanelDef is a parsed panel definition resource value.
type PanelDef struct {
	Name  string
	Items []ItemDef
}

// ParsePanelDef parses a panel definition value such as the paper's
//
//	button pulldown +0+0 \
//	button name +C+0 \
//	button nail -0+0 \
//	panel client +0+1
//
// (continuations arrive as newlines; tokens are whitespace-separated
// triples).
func ParsePanelDef(name, value string) (PanelDef, error) {
	def := PanelDef{Name: name}
	fields := strings.Fields(value)
	if len(fields) == 0 {
		return def, fmt.Errorf("objects: empty panel definition %q", name)
	}
	if len(fields)%3 != 0 {
		return def, fmt.Errorf("objects: panel %q: definition is not a list of (type name position) triples: %q", name, value)
	}
	for i := 0; i < len(fields); i += 3 {
		kind, err := ParseKind(fields[i])
		if err != nil {
			return def, fmt.Errorf("objects: panel %q: %w", name, err)
		}
		pos, err := geom.ParsePanelPos(fields[i+2])
		if err != nil {
			return def, fmt.Errorf("objects: panel %q item %q: %w", name, fields[i+1], err)
		}
		def.Items = append(def.Items, ItemDef{Kind: kind, Name: fields[i+1], Pos: pos})
	}
	return def, nil
}

// --- Resource context --------------------------------------------------------

// Context resolves object attributes against the resource database for
// one screen. Prefixes carry the dynamic resource-string insertions the
// paper describes: "shaped" for shaped clients (§5.1) and "sticky" for
// sticky windows (§6.2).
type Context struct {
	DB         *xrdb.DB
	ScreenNum  int
	Monochrome bool
	Prefixes   []string
}

// titleCased memoizes the class form of every resource component the
// manage fast path uses, so titleCase is allocation-free for them (map
// reads never allocate). Unknown components still get the generic
// concatenation.
var titleCased = map[string]string{
	"background":        "Background",
	"bindings":          "Bindings",
	"button":            "Button",
	"class":             "Class",
	"cursor":            "Cursor",
	"decoration":        "Decoration",
	"focusFollowsMouse": "FocusFollowsMouse",
	"font":              "Font",
	"foreground":        "Foreground",
	"geometry":          "Geometry",
	"hideWhenEmpty":     "HideWhenEmpty",
	"iconHolder":        "IconHolder",
	"iconHolders":       "IconHolders",
	"iconPanel":         "IconPanel",
	"image":             "Image",
	"label":             "Label",
	"menu":              "Menu",
	"panel":             "Panel",
	"remoteStart":       "RemoteStart",
	"resizeCorners":     "ResizeCorners",
	"root":              "Root",
	"rootIcon":          "RootIcon",
	"rootIcons":         "RootIcons",
	"rootPanels":        "RootPanels",
	"shape":             "Shape",
	"shapeMask":         "ShapeMask",
	"shaped":            "Shaped",
	"sizeToFit":         "SizeToFit",
	"sticky":            "Sticky",
	"text":              "Text",
	"transient":         "Transient",
}

// titleCase upper-cases the first letter, forming the class name of a
// resource component ("decoration" -> "Decoration").
func titleCase(s string) string {
	if s == "" || s[0] < 'a' || s[0] > 'z' {
		return s
	}
	if t, ok := titleCased[s]; ok {
		return t
	}
	return string(s[0]-'a'+'A') + s[1:]
}

func (ctx *Context) colorComponent() (name, class string) {
	if ctx.Monochrome {
		return "monochrome", "Monochrome"
	}
	return "color", "Color"
}

// screenComponents precomputes the per-screen resource component for
// the screen counts that occur in practice; higher numbers fall back
// to formatting.
var screenComponents = [8][2]string{
	{"screen0", "Screen0"}, {"screen1", "Screen1"},
	{"screen2", "Screen2"}, {"screen3", "Screen3"},
	{"screen4", "Screen4"}, {"screen5", "Screen5"},
	{"screen6", "Screen6"}, {"screen7", "Screen7"},
}

func screenComponent(n int) (name, class string) {
	if n >= 0 && n < len(screenComponents) {
		return screenComponents[n][0], screenComponents[n][1]
	}
	return fmt.Sprintf("screen%d", n), fmt.Sprintf("Screen%d", n)
}

// maxQueryDepth bounds a resource query's component count: swm, color,
// screen, up to three prefixes (shaped, sticky, transient) and three
// trailing components. Lookups build their component lists in
// stack-backed arrays of this size, so a query in the manage fast path
// does not allocate (the xrdb trie walk on the other side is
// allocation-free too).
const maxQueryDepth = 9

// appendBase appends the leading name/class components:
// swm.<color>.<screenN>[.<prefixes>...].
func (ctx *Context) appendBase(names, classes []string) ([]string, []string) {
	cn, cc := ctx.colorComponent()
	sn, sc := screenComponent(ctx.ScreenNum)
	names = append(names, "swm", cn, sn)
	classes = append(classes, "Swm", cc, sc)
	for _, p := range ctx.Prefixes {
		names = append(names, p)
		classes = append(classes, titleCase(p))
	}
	return names, classes
}

// Lookup queries a non-specific object resource:
// swm.<color>.<screenN>.<type>.<objName>.<attr>.
func (ctx *Context) Lookup(kind Kind, objName, attr string) (string, bool) {
	return ctx.LookupObject(kind.String(), objName, attr)
}

// LookupObject is Lookup for an object class named by string, such as
// the icon holders' and root icons' resources:
// swm.<color>.<screenN>.<class>.<objName>.<attr>.
func (ctx *Context) LookupObject(class, objName, attr string) (string, bool) {
	var nbuf, cbuf [maxQueryDepth]string
	names, classes := ctx.appendBase(nbuf[:0], cbuf[:0])
	names = append(names, class, objName, attr)
	classes = append(classes, titleCase(class), objName, titleCase(attr))
	return ctx.DB.Query(names, classes)
}

// LookupClient queries a specific resource for a client window. The
// paper (§3): "both components of the WM_CLASS property of the client
// are included in the resource string", giving the form
// swm.<color>.<screenN>.<class>.<instance>.<attr>.
func (ctx *Context) LookupClient(class, instance, attr string) (string, bool) {
	var nbuf, cbuf [maxQueryDepth]string
	names, classes := ctx.appendBase(nbuf[:0], cbuf[:0])
	names = append(names, class, instance, attr)
	classes = append(classes, class, class, titleCase(attr))
	return ctx.DB.Query(names, classes)
}

// LookupGlobal queries a non-specific operational resource:
// swm.<color>.<screenN>.<attr>[.<attr>...], each component's class its
// title-cased name.
func (ctx *Context) LookupGlobal(attrs ...string) (string, bool) {
	var nbuf, cbuf [maxQueryDepth]string
	names, classes := ctx.appendBase(nbuf[:0], cbuf[:0])
	for _, a := range attrs {
		names = append(names, a)
		classes = append(classes, titleCase(a))
	}
	return ctx.DB.Query(names, classes)
}

// PanelDefFor fetches and parses the panel definition resource
// swm*panel.<name> (no trailing attribute component).
func (ctx *Context) PanelDefFor(name string) (PanelDef, error) {
	var nbuf, cbuf [maxQueryDepth]string
	names, classes := ctx.appendBase(nbuf[:0], cbuf[:0])
	names = append(names, "panel", name)
	classes = append(classes, "Panel", name)
	v, found := ctx.DB.Query(names, classes)
	if !found {
		return PanelDef{}, fmt.Errorf("objects: no panel definition for %q", name)
	}
	return ParsePanelDef(name, v)
}

// loadAttributes populates an object's attributes and bindings from the
// database.
func (ctx *Context) loadAttributes(o *Object) error {
	if v, ok := ctx.Lookup(o.Kind, o.Name, "foreground"); ok {
		o.Attrs.Foreground = v
	}
	if v, ok := ctx.Lookup(o.Kind, o.Name, "background"); ok {
		o.Attrs.Background = v
	}
	if v, ok := ctx.Lookup(o.Kind, o.Name, "font"); ok {
		o.Attrs.Font = v
	}
	if v, ok := ctx.Lookup(o.Kind, o.Name, "cursor"); ok {
		o.Attrs.Cursor = v
	}
	if v, ok := ctx.Lookup(o.Kind, o.Name, "label"); ok {
		o.Attrs.Label = v
	}
	if v, ok := ctx.Lookup(o.Kind, o.Name, "image"); ok {
		o.Attrs.Image = v
	}
	if v, ok := ctx.Lookup(o.Kind, o.Name, "shapeMask"); ok {
		o.Attrs.ShapeMask = v
	}
	if v, ok := ctx.Lookup(o.Kind, o.Name, "shape"); ok {
		o.Attrs.Shape = strings.EqualFold(v, "true")
	}
	o.label = o.Name
	if o.Attrs.Label != "" {
		o.label = o.Attrs.Label
	}
	if v, ok := ctx.Lookup(o.Kind, o.Name, "bindings"); ok {
		t, err := bindings.Parse(v)
		if err != nil {
			return fmt.Errorf("objects: %s %q: %w", o.Kind, o.Name, err)
		}
		o.Bindings = t
	}
	return nil
}

// Build constructs the object tree for a named panel, resolving nested
// panel definitions recursively. The special child panel "client" (the
// slot where the client window goes, §4.1.1) is created empty even
// without its own definition.
func Build(ctx *Context, panelName string) (*Object, error) {
	return buildPanel(ctx, panelName, make(map[string]bool))
}

func buildPanel(ctx *Context, panelName string, inProgress map[string]bool) (*Object, error) {
	if inProgress[panelName] {
		return nil, fmt.Errorf("objects: panel %q is defined recursively", panelName)
	}
	inProgress[panelName] = true
	defer delete(inProgress, panelName)

	def, err := ctx.PanelDefFor(panelName)
	if err != nil {
		return nil, err
	}
	root := &Object{Kind: KindPanel, Name: panelName}
	if err := ctx.loadAttributes(root); err != nil {
		return nil, err
	}
	for _, item := range def.Items {
		var child *Object
		if item.Kind == KindPanel {
			// Nested panels may have their own definitions; the client
			// slot and other leaf panels may not.
			if _, derr := ctx.PanelDefFor(item.Name); derr == nil && item.Name != "client" {
				child, err = buildPanel(ctx, item.Name, inProgress)
				if err != nil {
					return nil, err
				}
			} else {
				child = &Object{Kind: KindPanel, Name: item.Name}
				if err := ctx.loadAttributes(child); err != nil {
					return nil, err
				}
			}
		} else {
			child = &Object{Kind: item.Kind, Name: item.Name}
			if err := ctx.loadAttributes(child); err != nil {
				return nil, err
			}
		}
		child.Pos = item.Pos
		child.Parent = root
		root.Children = append(root.Children, child)
	}
	return root, nil
}
