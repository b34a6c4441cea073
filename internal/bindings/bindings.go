// Package bindings parses swm object binding specifications. The paper
// chose the X Toolkit Intrinsics translation syntax "so that those
// familiar with the Xt syntax will not have to learn yet another way of
// specifying actions":
//
//	swm*button.foo.bindings: \
//	    <Btn1>   : f.raise \
//	    <Btn2>   : f.save f.zoom \
//	    <Key>Up  : f.warpvertical(-50)
//
// Each line binds an event description — optional modifiers, an event
// type in angle brackets, and an optional detail — to one or more
// window-manager function invocations. Any number of bindings may be
// given, and any number of functions per binding.
package bindings

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/xproto"
)

// Invocation is one window-manager function call, e.g. f.raise or
// f.iconify(blob).
type Invocation struct {
	Name   string // includes the "f." prefix, lowercased
	Arg    string
	HasArg bool
}

func (inv Invocation) String() string {
	if inv.HasArg {
		return fmt.Sprintf("%s(%s)", inv.Name, inv.Arg)
	}
	return inv.Name
}

// Binding maps one event description to a function list.
type Binding struct {
	Event       xproto.EventType
	Button      int           // for ButtonPress/ButtonRelease bindings
	Keysym      xproto.Keysym // for KeyPress/KeyRelease bindings
	Modifiers   uint16
	AnyModifier bool
	Invocations []Invocation
}

// Table is a parsed set of bindings for one object.
type Table struct {
	Bindings []Binding
}

// modifier names accepted before the <event> part.
var modifierNames = map[string]uint16{
	"ctrl":  xproto.ControlMask,
	"c":     xproto.ControlMask,
	"shift": xproto.ShiftMask,
	"s":     xproto.ShiftMask,
	"lock":  xproto.LockMask,
	"meta":  xproto.Mod1Mask,
	"m":     xproto.Mod1Mask,
	"alt":   xproto.Mod1Mask,
	"mod1":  xproto.Mod1Mask,
	"mod2":  xproto.Mod2Mask,
	"mod3":  xproto.Mod3Mask,
	"mod4":  xproto.Mod4Mask,
	"mod5":  xproto.Mod5Mask,
}

// Parse parses a bindings attribute value. Bindings are separated by
// newlines (resource-file continuations become newlines when loaded via
// xrdb).
func Parse(src string) (*Table, error) {
	t := &Table{}
	for lineno, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" {
			continue
		}
		b, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("bindings: line %d: %w", lineno+1, err)
		}
		t.Bindings = append(t.Bindings, b)
	}
	if len(t.Bindings) == 0 {
		return nil, fmt.Errorf("bindings: no bindings in %q", src)
	}
	return t, nil
}

func parseLine(line string) (Binding, error) {
	var b Binding
	// Split at the first ':' that follows the closing '>' (details such
	// as keysym names never contain ':').
	gt := strings.Index(line, ">")
	if gt < 0 {
		return b, fmt.Errorf("missing '<event>' in %q", line)
	}
	colon := strings.Index(line[gt:], ":")
	if colon < 0 {
		return b, fmt.Errorf("missing ':' in %q", line)
	}
	colon += gt
	eventPart := strings.TrimSpace(line[:colon])
	funcPart := strings.TrimSpace(line[colon+1:])

	lt := strings.Index(eventPart, "<")
	if lt < 0 || !strings.HasSuffix(eventPart[:gt+1], ">") && gt >= len(eventPart) {
		return b, fmt.Errorf("malformed event in %q", line)
	}
	modsPart := strings.TrimSpace(eventPart[:lt])
	gtLocal := strings.Index(eventPart, ">")
	typePart := strings.TrimSpace(eventPart[lt+1 : gtLocal])
	detail := strings.TrimSpace(eventPart[gtLocal+1:])

	// Modifiers.
	for _, m := range strings.Fields(modsPart) {
		lm := strings.ToLower(m)
		if lm == "any" {
			b.AnyModifier = true
			continue
		}
		bit, ok := modifierNames[lm]
		if !ok {
			return b, fmt.Errorf("unknown modifier %q", m)
		}
		b.Modifiers |= bit
	}

	// Event type.
	lt2 := strings.ToLower(typePart)
	switch {
	case strings.HasPrefix(lt2, "btn"):
		rest := lt2[3:]
		release := false
		if strings.HasSuffix(rest, "up") {
			release = true
			rest = strings.TrimSuffix(rest, "up")
		} else {
			rest = strings.TrimSuffix(rest, "down")
		}
		n, err := strconv.Atoi(rest)
		if err != nil || n < 1 || n > 5 {
			return b, fmt.Errorf("bad button event %q", typePart)
		}
		b.Button = n
		if release {
			b.Event = xproto.ButtonRelease
		} else {
			b.Event = xproto.ButtonPress
		}
	case lt2 == "key":
		b.Event = xproto.KeyPress
		if detail == "" {
			return b, fmt.Errorf("<Key> requires a keysym detail")
		}
		if b.Keysym = xproto.StringToKeysym(detail); b.Keysym == xproto.NoSymbol {
			return b, fmt.Errorf("unknown keysym %q", detail)
		}
		detail = ""
	case lt2 == "keyup":
		b.Event = xproto.KeyRelease
		if detail == "" {
			return b, fmt.Errorf("<KeyUp> requires a keysym detail")
		}
		if b.Keysym = xproto.StringToKeysym(detail); b.Keysym == xproto.NoSymbol {
			return b, fmt.Errorf("unknown keysym %q", detail)
		}
		detail = ""
	case lt2 == "enter" || lt2 == "enterwindow":
		b.Event = xproto.EnterNotify
	case lt2 == "leave" || lt2 == "leavewindow":
		b.Event = xproto.LeaveNotify
	case lt2 == "motion" || lt2 == "ptrmoved":
		b.Event = xproto.MotionNotify
	default:
		return b, fmt.Errorf("unknown event type %q", typePart)
	}
	if detail != "" {
		return b, fmt.Errorf("unexpected detail %q after <%s>", detail, typePart)
	}

	// Function list.
	invs, err := ParseInvocations(funcPart)
	if err != nil {
		return b, err
	}
	b.Invocations = invs
	return b, nil
}

// ParseInvocations parses a whitespace-separated list of f.* calls, each
// optionally carrying a single parenthesized argument. It is also used
// directly by the swmcmd protocol handler.
func ParseInvocations(s string) ([]Invocation, error) {
	var out []Invocation
	i := 0
	for i < len(s) {
		// Skip whitespace.
		for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
			i++
		}
		if i >= len(s) {
			break
		}
		start := i
		for i < len(s) && s[i] != ' ' && s[i] != '\t' && s[i] != '(' {
			i++
		}
		name := s[start:i]
		if !strings.HasPrefix(strings.ToLower(name), "f.") || len(name) <= 2 {
			return nil, fmt.Errorf("bindings: %q is not a window manager function", name)
		}
		inv := Invocation{Name: strings.ToLower(name)}
		if i < len(s) && s[i] == '(' {
			end := strings.IndexByte(s[i:], ')')
			if end < 0 {
				return nil, fmt.Errorf("bindings: unterminated argument in %q", s)
			}
			inv.Arg = strings.TrimSpace(s[i+1 : i+end])
			inv.HasArg = true
			i += end + 1
		}
		out = append(out, inv)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("bindings: empty function list")
	}
	return out, nil
}

// relevantMods masks the modifier state down to the bits bindings can
// express (button state bits are ignored when matching).
const relevantMods = xproto.ShiftMask | xproto.LockMask | xproto.ControlMask |
	xproto.Mod1Mask | xproto.Mod2Mask | xproto.Mod3Mask | xproto.Mod4Mask |
	xproto.Mod5Mask

// Lookup returns the function list bound to the given event, or nil.
// Button is consulted for button events, keysym for key events. The
// modifier state must match exactly (ignoring button bits) unless the
// binding says Any.
func (t *Table) Lookup(ev xproto.EventType, button int, keysym xproto.Keysym, state uint16) []Invocation {
	for i := range t.Bindings {
		b := &t.Bindings[i]
		if b.Event != ev {
			continue
		}
		switch ev {
		case xproto.ButtonPress, xproto.ButtonRelease:
			if b.Button != button {
				continue
			}
		case xproto.KeyPress, xproto.KeyRelease:
			if b.Keysym != keysym {
				continue
			}
		}
		if !b.AnyModifier && b.Modifiers != state&relevantMods {
			continue
		}
		return b.Invocations
	}
	return nil
}

// --- Invocation target modes (paper §4.2) ---------------------------------

// TargetMode says how a window-manager function selects its victim.
type TargetMode int

const (
	// TargetCurrent applies to the window the binding context supplies
	// (f.iconify).
	TargetCurrent TargetMode = iota
	// TargetMultiple prompts for windows repeatedly (f.iconify(multiple)).
	TargetMultiple
	// TargetClass applies to every window of a WM_CLASS
	// (f.iconify(blob)).
	TargetClass
	// TargetUnderPointer applies to the window under the mouse
	// (f.iconify(#$)).
	TargetUnderPointer
	// TargetWindowID applies to a specific window ID
	// (f.iconify(#0x1234)).
	TargetWindowID
)

// Target is a parsed invocation argument.
type Target struct {
	Mode   TargetMode
	Class  string
	Window xproto.XID
	// Num is the numeric argument for functions like f.warpvertical(-50).
	Num    int
	HasNum bool
	Raw    string
}

// ParseTarget decodes an invocation argument into a target descriptor.
// An absent argument means TargetCurrent. Numeric arguments (used by
// warp/pan functions) are parsed into Num as well.
func ParseTarget(inv Invocation) (Target, error) {
	if !inv.HasArg || inv.Arg == "" {
		return Target{Mode: TargetCurrent}, nil
	}
	arg := inv.Arg
	t := Target{Raw: arg}
	switch {
	case arg == "#$":
		t.Mode = TargetUnderPointer
	case strings.HasPrefix(arg, "#"):
		idStr := arg[1:]
		base := 10
		if strings.HasPrefix(strings.ToLower(idStr), "0x") {
			idStr = idStr[2:]
			base = 16
		}
		v, err := strconv.ParseUint(idStr, base, 32)
		if err != nil {
			return t, fmt.Errorf("bindings: bad window id %q", arg)
		}
		t.Mode = TargetWindowID
		t.Window = xproto.XID(v)
	case strings.EqualFold(arg, "multiple"):
		t.Mode = TargetMultiple
	default:
		t.Mode = TargetClass
		t.Class = arg
		if n, err := strconv.Atoi(arg); err == nil {
			t.Num = n
			t.HasNum = true
		}
	}
	return t, nil
}
