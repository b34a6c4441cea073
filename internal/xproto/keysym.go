package xproto

import "fmt"

// Keysym is a key symbol code, as the protocol's 32-bit KEYSYM carries
// it. Events, passive key grabs and bindings compare codes; names are
// read only where text comes in (binding specifications, the FakeKey
// edge) through StringToKeysym, as Xlib's XStringToKeysym does.
type Keysym uint32

// NoSymbol is the null keysym. Its name is "".
const NoSymbol Keysym = 0

// keysymDefs lists the named keysyms with their keysymdef.h codes. The
// first name of a code is its canonical one (Prior before Page_Up), as
// XKeysymToString reports it. Letters, digits and function keys are
// added by init.
var keysymDefs = []struct {
	name string
	code Keysym
}{
	{"space", 0x20}, {"exclam", 0x21}, {"quotedbl", 0x22}, {"numbersign", 0x23},
	{"dollar", 0x24}, {"percent", 0x25}, {"ampersand", 0x26}, {"apostrophe", 0x27},
	{"parenleft", 0x28}, {"parenright", 0x29}, {"asterisk", 0x2a}, {"plus", 0x2b},
	{"comma", 0x2c}, {"minus", 0x2d}, {"period", 0x2e}, {"slash", 0x2f},
	{"colon", 0x3a}, {"semicolon", 0x3b}, {"less", 0x3c}, {"equal", 0x3d},
	{"greater", 0x3e}, {"question", 0x3f}, {"at", 0x40},
	{"bracketleft", 0x5b}, {"backslash", 0x5c}, {"bracketright", 0x5d},
	{"asciicircum", 0x5e}, {"underscore", 0x5f}, {"grave", 0x60},
	{"braceleft", 0x7b}, {"bar", 0x7c}, {"braceright", 0x7d}, {"asciitilde", 0x7e},

	{"BackSpace", 0xff08}, {"Tab", 0xff09}, {"Linefeed", 0xff0a}, {"Clear", 0xff0b},
	{"Return", 0xff0d}, {"Pause", 0xff13}, {"Scroll_Lock", 0xff14}, {"Sys_Req", 0xff15},
	{"Escape", 0xff1b}, {"Delete", 0xffff},

	{"Home", 0xff50}, {"Left", 0xff51}, {"Up", 0xff52}, {"Right", 0xff53},
	{"Down", 0xff54}, {"Prior", 0xff55}, {"Page_Up", 0xff55}, {"Next", 0xff56},
	{"Page_Down", 0xff56}, {"End", 0xff57}, {"Begin", 0xff58},

	{"Select", 0xff60}, {"Print", 0xff61}, {"Execute", 0xff62}, {"Insert", 0xff63},
	{"Undo", 0xff65}, {"Redo", 0xff66}, {"Menu", 0xff67}, {"Find", 0xff68},
	{"Cancel", 0xff69}, {"Help", 0xff6a}, {"Break", 0xff6b}, {"Num_Lock", 0xff7f},

	{"Shift_L", 0xffe1}, {"Shift_R", 0xffe2}, {"Control_L", 0xffe3}, {"Control_R", 0xffe4},
	{"Caps_Lock", 0xffe5}, {"Shift_Lock", 0xffe6}, {"Meta_L", 0xffe7}, {"Meta_R", 0xffe8},
	{"Alt_L", 0xffe9}, {"Alt_R", 0xffea}, {"Super_L", 0xffeb}, {"Super_R", 0xffec},
	{"Hyper_L", 0xffed}, {"Hyper_R", 0xffee},
}

var (
	keysymByName = map[string]Keysym{}
	keysymNames  = map[Keysym]string{}
)

func init() {
	def := func(name string, code Keysym) {
		keysymByName[name] = code
		if _, ok := keysymNames[code]; !ok {
			keysymNames[code] = name
		}
	}
	for _, d := range keysymDefs {
		def(d.name, d.code)
	}
	for c := '0'; c <= '9'; c++ {
		def(string(c), Keysym(c))
	}
	for c := 'A'; c <= 'Z'; c++ {
		def(string(c), Keysym(c))
		def(string(c+'a'-'A'), Keysym(c+'a'-'A'))
	}
	for i := 1; i <= 35; i++ {
		def(fmt.Sprintf("F%d", i), Keysym(0xffbe+i-1))
	}
}

// StringToKeysym returns the code of a keysym name ("a", "Up", "F1"),
// or NoSymbol when the name is unknown or empty.
func StringToKeysym(name string) Keysym { return keysymByName[name] }

// String returns the keysym's canonical name, "" for NoSymbol, or its
// hex code when it has no name here.
func (k Keysym) String() string {
	if s, ok := keysymNames[k]; ok || k == NoSymbol {
		return s
	}
	return fmt.Sprintf("0x%x", uint32(k))
}
