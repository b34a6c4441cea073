package xproto

import "testing"

func TestKeysymNames(t *testing.T) {
	for _, tc := range []struct {
		name string
		code Keysym
		back string // the canonical name, when it differs
	}{
		{"a", 0x61, ""}, {"A", 0x41, ""}, {"0", 0x30, ""}, {"space", 0x20, ""},
		{"Up", 0xff52, ""}, {"Escape", 0xff1b, ""}, {"F1", 0xffbe, ""}, {"F35", 0xffe0, ""},
		{"Prior", 0xff55, ""}, {"Page_Up", 0xff55, "Prior"}, {"Page_Down", 0xff56, "Next"},
		{"", NoSymbol, ""}, {"Upp", NoSymbol, ""}, {"f1", NoSymbol, ""},
	} {
		if got := StringToKeysym(tc.name); got != tc.code {
			t.Errorf("StringToKeysym(%q) = 0x%x, want 0x%x", tc.name, uint32(got), uint32(tc.code))
		}
		want := tc.name
		if tc.back != "" {
			want = tc.back
		}
		if tc.code == NoSymbol {
			want = ""
		}
		if got := tc.code.String(); got != want {
			t.Errorf("Keysym(0x%x).String() = %q, want %q", uint32(tc.code), got, want)
		}
	}
	if got := Keysym(0x1234).String(); got != "0x1234" {
		t.Errorf("unnamed keysym = %q, want its code", got)
	}
	for code, name := range keysymNames {
		if StringToKeysym(name) != code {
			t.Errorf("%q does not round-trip to 0x%x", name, uint32(code))
		}
	}
}
