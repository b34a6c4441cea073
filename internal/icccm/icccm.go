// Package icccm encodes and decodes the Inter-Client Communication
// Conventions Manual properties that swm consumes and produces:
// WM_NAME, WM_ICON_NAME, WM_CLASS, WM_NORMAL_HINTS (with the
// USPosition/PPosition distinction the Virtual Desktop placement policy
// depends on), WM_HINTS, WM_STATE, WM_COMMAND, WM_CLIENT_MACHINE and
// WM_PROTOCOLS. Format-32 values are serialized little-endian, 4 bytes
// per item.
package icccm

import (
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/xproto"
	"repro/internal/xserver"
)

// WM_NORMAL_HINTS flag bits (XSizeHints.flags).
const (
	USPosition = 1 << 0 // user-specified position
	USSize     = 1 << 1 // user-specified size
	PPosition  = 1 << 2 // program-specified position
	PSize      = 1 << 3 // program-specified size
	PMinSize   = 1 << 4
	PMaxSize   = 1 << 5
	PResizeInc = 1 << 6
)

// NormalHints mirrors XSizeHints.
type NormalHints struct {
	Flags               uint32
	X, Y                int
	Width, Height       int
	MinWidth, MinHeight int
	MaxWidth, MaxHeight int
	WidthInc, HeightInc int
}

// WM_HINTS flag bits (XWMHints.flags).
const (
	InputHint        = 1 << 0
	StateHint        = 1 << 1
	IconPixmapHint   = 1 << 2
	IconWindowHint   = 1 << 3
	IconPositionHint = 1 << 4
)

// Hints mirrors XWMHints.
type Hints struct {
	Flags        uint32
	Input        bool
	InitialState int
	IconPixmap   string // bitmap name; our server models pixmaps by name
	IconWindow   xproto.XID
	IconX, IconY int
}

// Class is the WM_CLASS pair. The paper's "specific resources" include
// "both components of the WM_CLASS property".
type Class struct {
	Instance string
	Class    string
}

// State is the WM_STATE property written by the window manager.
type State struct {
	State      int // Withdrawn/Normal/Iconic
	IconWindow xproto.XID
}

func put32(buf []byte, vals ...uint32) []byte {
	for _, v := range vals {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		buf = append(buf, b[:]...)
	}
	return buf
}

func get32(data []byte, idx int) uint32 {
	off := idx * 4
	if off+4 > len(data) {
		return 0
	}
	return binary.LittleEndian.Uint32(data[off : off+4])
}

// --- Typed property access ------------------------------------------------

// Prop is a typed window property: an atom name plus a decoder. It is
// the single doorway every Get* accessor routes through, giving all of
// them the same (value, ok, error) contract:
//
//   - (zero, false, nil): the property is simply not set — the common
//     optional-property case, not an error.
//   - (zero, false, err): the GetProperty request failed (err is the
//     X error) or the value was malformed (err says how).
//   - (value, true, nil): the property was present and well-formed.
//
// Callers are expected to route err through their degradation check
// and treat ok as the presence signal; no error may be silently
// discarded, which is what lets conncheck analyze icccm call sites
// without per-site waivers.
type Prop[T any] struct {
	// Name is the property's atom name ("WM_NAME").
	Name string
	// Decode parses the raw property value. The connection is supplied
	// for decoders that resolve atoms (WM_PROTOCOLS).
	Decode func(c *xserver.Conn, data []byte) (T, error)
}

// Get reads and decodes the property from w.
func (p Prop[T]) Get(c *xserver.Conn, w xproto.XID) (T, bool, error) {
	var zero T
	raw, ok, err := c.GetProperty(w, c.InternAtom(p.Name))
	if err != nil || !ok {
		return zero, false, err
	}
	v, err := p.Decode(c, raw.Data)
	if err != nil {
		return zero, false, err
	}
	return v, true, nil
}

func decodeString(_ *xserver.Conn, data []byte) (string, error) {
	return string(data), nil
}

// --- NormalHints ----------------------------------------------------------

// EncodeNormalHints serializes hints in WM_NORMAL_HINTS layout.
func EncodeNormalHints(h NormalHints) []byte {
	return put32(nil,
		h.Flags,
		uint32(int32(h.X)), uint32(int32(h.Y)),
		uint32(int32(h.Width)), uint32(int32(h.Height)),
		uint32(int32(h.MinWidth)), uint32(int32(h.MinHeight)),
		uint32(int32(h.MaxWidth)), uint32(int32(h.MaxHeight)),
		uint32(int32(h.WidthInc)), uint32(int32(h.HeightInc)),
	)
}

// DecodeNormalHints parses a WM_NORMAL_HINTS value.
func DecodeNormalHints(data []byte) (NormalHints, error) {
	if len(data) < 4 {
		return NormalHints{}, fmt.Errorf("icccm: WM_NORMAL_HINTS too short (%d bytes)", len(data))
	}
	return NormalHints{
		Flags:     get32(data, 0),
		X:         int(int32(get32(data, 1))),
		Y:         int(int32(get32(data, 2))),
		Width:     int(int32(get32(data, 3))),
		Height:    int(int32(get32(data, 4))),
		MinWidth:  int(int32(get32(data, 5))),
		MinHeight: int(int32(get32(data, 6))),
		MaxWidth:  int(int32(get32(data, 7))),
		MaxHeight: int(int32(get32(data, 8))),
		WidthInc:  int(int32(get32(data, 9))),
		HeightInc: int(int32(get32(data, 10))),
	}, nil
}

// SetNormalHints writes WM_NORMAL_HINTS on a window.
func SetNormalHints(c *xserver.Conn, w xproto.XID, h NormalHints) error {
	return c.ChangeProperty(w, c.InternAtom("WM_NORMAL_HINTS"),
		c.InternAtom("WM_NORMAL_HINTS"), 32, xproto.PropModeReplace,
		EncodeNormalHints(h))
}

// PropNormalHints is the typed WM_NORMAL_HINTS property.
var PropNormalHints = Prop[NormalHints]{"WM_NORMAL_HINTS", func(_ *xserver.Conn, data []byte) (NormalHints, error) {
	return DecodeNormalHints(data)
}}

// GetNormalHints reads WM_NORMAL_HINTS from a window.
func GetNormalHints(c *xserver.Conn, w xproto.XID) (NormalHints, bool, error) {
	return PropNormalHints.Get(c, w)
}

// --- Hints ------------------------------------------------------------------

// EncodeHints serializes WM_HINTS. The icon pixmap name travels after
// the fixed fields, length-prefixed, since our server models pixmaps by
// name rather than by XID.
func EncodeHints(h Hints) []byte {
	input := uint32(0)
	if h.Input {
		input = 1
	}
	buf := put32(nil,
		h.Flags, input, uint32(h.InitialState),
		uint32(h.IconWindow),
		uint32(int32(h.IconX)), uint32(int32(h.IconY)),
		uint32(len(h.IconPixmap)),
	)
	return append(buf, h.IconPixmap...)
}

// DecodeHints parses WM_HINTS.
func DecodeHints(data []byte) (Hints, error) {
	if len(data) < 7*4 {
		return Hints{}, fmt.Errorf("icccm: WM_HINTS too short (%d bytes)", len(data))
	}
	h := Hints{
		Flags:        get32(data, 0),
		Input:        get32(data, 1) != 0,
		InitialState: int(get32(data, 2)),
		IconWindow:   xproto.XID(get32(data, 3)),
		IconX:        int(int32(get32(data, 4))),
		IconY:        int(int32(get32(data, 5))),
	}
	n := int(get32(data, 6))
	if n > 0 && 7*4+n <= len(data) {
		h.IconPixmap = string(data[7*4 : 7*4+n])
	}
	return h, nil
}

// SetHints writes WM_HINTS on a window.
func SetHints(c *xserver.Conn, w xproto.XID, h Hints) error {
	return c.ChangeProperty(w, c.InternAtom("WM_HINTS"),
		c.InternAtom("WM_HINTS"), 32, xproto.PropModeReplace, EncodeHints(h))
}

// PropHints is the typed WM_HINTS property.
var PropHints = Prop[Hints]{"WM_HINTS", func(_ *xserver.Conn, data []byte) (Hints, error) {
	return DecodeHints(data)
}}

// GetHints reads WM_HINTS from a window.
func GetHints(c *xserver.Conn, w xproto.XID) (Hints, bool, error) {
	return PropHints.Get(c, w)
}

// --- Class -------------------------------------------------------------------

// EncodeClass serializes WM_CLASS as "instance\0class\0".
func EncodeClass(cl Class) []byte {
	out := make([]byte, 0, len(cl.Instance)+len(cl.Class)+2)
	out = append(out, cl.Instance...)
	out = append(out, 0)
	out = append(out, cl.Class...)
	out = append(out, 0)
	return out
}

// DecodeClass parses WM_CLASS.
func DecodeClass(data []byte) (Class, error) {
	parts := strings.Split(strings.TrimSuffix(string(data), "\x00"), "\x00")
	if len(parts) < 2 {
		return Class{}, fmt.Errorf("icccm: malformed WM_CLASS %q", data)
	}
	return Class{Instance: parts[0], Class: parts[1]}, nil
}

// SetClass writes WM_CLASS on a window.
func SetClass(c *xserver.Conn, w xproto.XID, cl Class) error {
	return c.ChangeProperty(w, c.InternAtom("WM_CLASS"),
		c.InternAtom("STRING"), 8, xproto.PropModeReplace, EncodeClass(cl))
}

// PropClass is the typed WM_CLASS property.
var PropClass = Prop[Class]{"WM_CLASS", func(_ *xserver.Conn, data []byte) (Class, error) {
	return DecodeClass(data)
}}

// GetClass reads WM_CLASS from a window.
func GetClass(c *xserver.Conn, w xproto.XID) (Class, bool, error) {
	return PropClass.Get(c, w)
}

// --- Simple string properties -------------------------------------------------

// SetName writes WM_NAME.
func SetName(c *xserver.Conn, w xproto.XID, name string) error {
	return c.ChangeProperty(w, c.InternAtom("WM_NAME"),
		c.InternAtom("STRING"), 8, xproto.PropModeReplace, []byte(name))
}

// PropName is the typed WM_NAME property.
var PropName = Prop[string]{"WM_NAME", decodeString}

// GetName reads WM_NAME.
func GetName(c *xserver.Conn, w xproto.XID) (string, bool, error) {
	return PropName.Get(c, w)
}

// SetIconName writes WM_ICON_NAME.
func SetIconName(c *xserver.Conn, w xproto.XID, name string) error {
	return c.ChangeProperty(w, c.InternAtom("WM_ICON_NAME"),
		c.InternAtom("STRING"), 8, xproto.PropModeReplace, []byte(name))
}

// PropIconName is the typed WM_ICON_NAME property.
var PropIconName = Prop[string]{"WM_ICON_NAME", decodeString}

// GetIconName reads WM_ICON_NAME.
func GetIconName(c *xserver.Conn, w xproto.XID) (string, bool, error) {
	return PropIconName.Get(c, w)
}

// SetClientMachine writes WM_CLIENT_MACHINE.
func SetClientMachine(c *xserver.Conn, w xproto.XID, host string) error {
	return c.ChangeProperty(w, c.InternAtom("WM_CLIENT_MACHINE"),
		c.InternAtom("STRING"), 8, xproto.PropModeReplace, []byte(host))
}

// PropClientMachine is the typed WM_CLIENT_MACHINE property.
var PropClientMachine = Prop[string]{"WM_CLIENT_MACHINE", decodeString}

// GetClientMachine reads WM_CLIENT_MACHINE.
func GetClientMachine(c *xserver.Conn, w xproto.XID) (string, bool, error) {
	return PropClientMachine.Get(c, w)
}

// --- WM_COMMAND ------------------------------------------------------------------

// EncodeCommand serializes argv as NUL-terminated strings, the
// WM_COMMAND wire format.
func EncodeCommand(argv []string) []byte {
	var out []byte
	for _, a := range argv {
		out = append(out, a...)
		out = append(out, 0)
	}
	return out
}

// DecodeCommand parses WM_COMMAND into argv.
func DecodeCommand(data []byte) []string {
	if len(data) == 0 {
		return nil
	}
	s := strings.TrimSuffix(string(data), "\x00")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\x00")
}

// SetCommand writes WM_COMMAND.
func SetCommand(c *xserver.Conn, w xproto.XID, argv []string) error {
	return c.ChangeProperty(w, c.InternAtom("WM_COMMAND"),
		c.InternAtom("STRING"), 8, xproto.PropModeReplace, EncodeCommand(argv))
}

// PropCommand is the typed WM_COMMAND property.
var PropCommand = Prop[[]string]{"WM_COMMAND", func(_ *xserver.Conn, data []byte) ([]string, error) {
	return DecodeCommand(data), nil
}}

// GetCommand reads WM_COMMAND.
func GetCommand(c *xserver.Conn, w xproto.XID) ([]string, bool, error) {
	return PropCommand.Get(c, w)
}

// --- WM_STATE ------------------------------------------------------------------

// SetState writes the WM_STATE property (the window manager's
// responsibility under ICCCM §4.1.3.1).
func SetState(c *xserver.Conn, w xproto.XID, st State) error {
	data := put32(nil, uint32(st.State), uint32(st.IconWindow))
	return c.ChangeProperty(w, c.InternAtom("WM_STATE"),
		c.InternAtom("WM_STATE"), 32, xproto.PropModeReplace, data)
}

// PropState is the typed WM_STATE property.
var PropState = Prop[State]{"WM_STATE", func(_ *xserver.Conn, data []byte) (State, error) {
	if len(data) < 8 {
		return State{}, fmt.Errorf("icccm: WM_STATE too short (%d bytes)", len(data))
	}
	return State{
		State:      int(get32(data, 0)),
		IconWindow: xproto.XID(get32(data, 1)),
	}, nil
}}

// GetState reads WM_STATE.
func GetState(c *xserver.Conn, w xproto.XID) (State, bool, error) {
	return PropState.Get(c, w)
}

// --- WM_PROTOCOLS ------------------------------------------------------------------

// SetProtocols writes WM_PROTOCOLS as a list of atoms.
func SetProtocols(c *xserver.Conn, w xproto.XID, names []string) error {
	var data []byte
	for _, n := range names {
		data = put32(data, uint32(c.InternAtom(n)))
	}
	return c.ChangeProperty(w, c.InternAtom("WM_PROTOCOLS"),
		c.InternAtom("ATOM"), 32, xproto.PropModeReplace, data)
}

// PropProtocols is the typed WM_PROTOCOLS property. Its decoder needs
// the connection to resolve atoms back to protocol names.
var PropProtocols = Prop[[]string]{"WM_PROTOCOLS", func(c *xserver.Conn, data []byte) ([]string, error) {
	var names []string
	for i := 0; i*4+4 <= len(data); i++ {
		names = append(names, c.AtomName(xproto.Atom(get32(data, i))))
	}
	return names, nil
}}

// GetProtocols reads WM_PROTOCOLS, returning protocol names.
func GetProtocols(c *xserver.Conn, w xproto.XID) ([]string, bool, error) {
	return PropProtocols.Get(c, w)
}

// HasProtocol reports whether the window advertises the given
// protocol. The error is the underlying GetProperty failure, if any
// (an absent WM_PROTOCOLS is false with a nil error).
func HasProtocol(c *xserver.Conn, w xproto.XID, name string) (bool, error) {
	names, ok, err := GetProtocols(c, w)
	if err != nil || !ok {
		return false, err
	}
	for _, n := range names {
		if n == name {
			return true, nil
		}
	}
	return false, nil
}

// --- WM_TRANSIENT_FOR ---------------------------------------------------------

// PropTransientFor is the typed WM_TRANSIENT_FOR property: the window
// this one is a transient dialog for.
var PropTransientFor = Prop[xproto.XID]{"WM_TRANSIENT_FOR", func(_ *xserver.Conn, data []byte) (xproto.XID, error) {
	if len(data) < 4 {
		return xproto.None, fmt.Errorf("icccm: WM_TRANSIENT_FOR too short (%d bytes)", len(data))
	}
	return xproto.XID(get32(data, 0)), nil
}}

// SetTransientFor writes WM_TRANSIENT_FOR.
func SetTransientFor(c *xserver.Conn, w, owner xproto.XID) error {
	return c.ChangeProperty(w, c.InternAtom("WM_TRANSIENT_FOR"),
		c.InternAtom("WINDOW"), 32, xproto.PropModeReplace, put32(nil, uint32(owner)))
}

// GetTransientFor reads WM_TRANSIENT_FOR; ok is false for ordinary
// (non-transient) windows.
func GetTransientFor(c *xserver.Conn, w xproto.XID) (xproto.XID, bool, error) {
	return PropTransientFor.Get(c, w)
}

// SendDeleteWindow delivers a WM_DELETE_WINDOW ClientMessage to the
// window's owning client.
func SendDeleteWindow(c *xserver.Conn, w xproto.XID) error {
	ev := xproto.Event{
		Type:        xproto.ClientMessage,
		MessageType: c.InternAtom("WM_PROTOCOLS"),
		Format:      32,
	}
	binary.LittleEndian.PutUint32(ev.Data[:], uint32(c.InternAtom("WM_DELETE_WINDOW")))
	return c.SendEvent(w, 0, ev)
}

// DecodeAtom32 extracts the first format-32 atom from a ClientMessage
// payload (used by clients receiving WM_PROTOCOLS messages).
func DecodeAtom32(data [20]byte) xproto.Atom {
	return xproto.Atom(get32(data[:], 0))
}

// --- Synthetic ConfigureNotify ----------------------------------------------------

// SendSyntheticConfigureNotify tells a reparented client its root-
// relative geometry, as ICCCM §4.1.5 requires when the WM moves a frame
// without resizing the client.
func SendSyntheticConfigureNotify(c *xserver.Conn, w xproto.XID, rootX, rootY, width, height int) error {
	return c.SendEvent(w, xproto.StructureNotifyMask, xproto.Event{
		Type:   xproto.ConfigureNotify,
		Window: w, Subwindow: w,
		GX: rootX, GY: rootY, Width: width, Height: height,
	})
}
