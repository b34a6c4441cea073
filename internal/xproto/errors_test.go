package xproto

import (
	"errors"
	"fmt"
	"testing"
)

func TestErrorCodeStringRoundTrip(t *testing.T) {
	cases := []struct {
		code ErrorCode
		name string
	}{
		{BadRequest, "BadRequest"},
		{BadValue, "BadValue"},
		{BadWindow, "BadWindow"},
		{BadAtom, "BadAtom"},
		{BadMatch, "BadMatch"},
		{BadDrawable, "BadDrawable"},
		{BadAccess, "BadAccess"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.code.String(); got != tc.name {
				t.Errorf("String() = %q, want %q", got, tc.name)
			}
			back, ok := ParseErrorCode(tc.name)
			if !ok || back != tc.code {
				t.Errorf("ParseErrorCode(%q) = %v, %v; want %v, true", tc.name, back, ok, tc.code)
			}
		})
	}
}

func TestErrorCodeValuesMatchProtocol(t *testing.T) {
	// The numeric values are the X11 core protocol encodings.
	want := map[ErrorCode]uint8{
		BadRequest: 1, BadValue: 2, BadWindow: 3, BadAtom: 5,
		BadMatch: 8, BadDrawable: 9, BadAccess: 10,
	}
	for code, num := range want {
		if uint8(code) != num {
			t.Errorf("%s = %d, want %d", code, uint8(code), num)
		}
	}
}

func TestErrorCodeStringUnknown(t *testing.T) {
	if got := ErrorCode(42).String(); got != "BadError(42)" {
		t.Errorf("unknown code String() = %q", got)
	}
	if _, ok := ParseErrorCode("BadBanana"); ok {
		t.Error("ParseErrorCode accepted an unknown name")
	}
}

func TestXErrorMessageFormats(t *testing.T) {
	cases := []struct {
		name string
		err  *XError
		want string
	}{
		{
			name: "resource only",
			err:  &XError{Code: BadWindow, Resource: 0x200001},
			want: "xserver: BadWindow 0x200001",
		},
		{
			name: "detail wins over resource",
			err:  &XError{Code: BadValue, Resource: 0x200001, Detail: "zero-sized window 0x0"},
			want: "xserver: BadValue: zero-sized window 0x0",
		},
		{
			name: "bare code",
			err:  &XError{Code: BadAccess},
			want: "xserver: BadAccess",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.err.Error(); got != tc.want {
				t.Errorf("Error() = %q, want %q", got, tc.want)
			}
		})
	}
}

func TestXErrorIs(t *testing.T) {
	err := &XError{Code: BadWindow, Major: MajorMapWindow, Resource: 0x200005}
	cases := []struct {
		name   string
		target error
		want   bool
	}{
		{"code sentinel", ErrBadWindow, true},
		{"wrong code sentinel", ErrBadMatch, false},
		{"full match", &XError{Code: BadWindow, Major: MajorMapWindow, Resource: 0x200005}, true},
		{"wrong major", &XError{Code: BadWindow, Major: MajorDestroyWindow}, false},
		{"wrong resource", &XError{Code: BadWindow, Resource: 0x200009}, false},
		{"resource wildcard", &XError{Code: BadWindow, Major: MajorMapWindow}, true},
		{"non-xerror target", errors.New("xserver: BadWindow 0x200005"), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := errors.Is(err, tc.target); got != tc.want {
				t.Errorf("errors.Is = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestXErrorThroughWrapping(t *testing.T) {
	inner := &XError{Code: BadDrawable, Major: MajorGetGeometry, Resource: 0x300000}
	wrapped := fmt.Errorf("manage 0x300000: %w", inner)

	if !errors.Is(wrapped, ErrBadDrawable) {
		t.Error("errors.Is failed through fmt.Errorf wrapping")
	}
	var xe *XError
	if !errors.As(wrapped, &xe) {
		t.Fatal("errors.As failed through fmt.Errorf wrapping")
	}
	if xe.Major != MajorGetGeometry || xe.Resource != 0x300000 {
		t.Errorf("errors.As recovered %+v", xe)
	}
	code, ok := CodeOf(wrapped)
	if !ok || code != BadDrawable {
		t.Errorf("CodeOf = %v, %v; want BadDrawable, true", code, ok)
	}
	if _, ok := CodeOf(errors.New("plain")); ok {
		t.Error("CodeOf matched a non-XError")
	}
}
