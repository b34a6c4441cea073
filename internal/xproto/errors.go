package xproto

import (
	"errors"
	"fmt"
	"strings"
)

// ErrorCode is an X11 core protocol error code. The numeric values
// match the core protocol encoding so that logs and counters line up
// with what a real server would report.
type ErrorCode uint8

const (
	BadRequest  ErrorCode = 1
	BadValue    ErrorCode = 2
	BadWindow   ErrorCode = 3
	BadAtom     ErrorCode = 5
	BadMatch    ErrorCode = 8
	BadDrawable ErrorCode = 9
	BadAccess   ErrorCode = 10
)

var errorCodeNames = map[ErrorCode]string{
	BadRequest:  "BadRequest",
	BadValue:    "BadValue",
	BadWindow:   "BadWindow",
	BadAtom:     "BadAtom",
	BadMatch:    "BadMatch",
	BadDrawable: "BadDrawable",
	BadAccess:   "BadAccess",
}

func (c ErrorCode) String() string {
	if name, ok := errorCodeNames[c]; ok {
		return name
	}
	return fmt.Sprintf("BadError(%d)", uint8(c))
}

// ParseErrorCode maps a code name ("BadWindow") back to its ErrorCode.
func ParseErrorCode(name string) (ErrorCode, bool) {
	for c, n := range errorCodeNames {
		if n == name {
			return c, true
		}
	}
	return 0, false
}

// XError is a typed X protocol error. Code is always set; Major names
// the failing request (MajorConfigureWindow), Resource the offending
// resource, and Detail carries human-readable context — each only when
// known.
type XError struct {
	Code     ErrorCode
	Major    Major
	Resource XID
	Detail   string
}

// Error renders the same message shapes the untyped fmt.Errorf sites
// produced ("xserver: BadWindow 0x200001", "xserver: BadValue:
// zero-sized window ..."), so log output and any string matching stay
// stable across the migration.
func (e *XError) Error() string {
	var b strings.Builder
	b.WriteString("xserver: ")
	b.WriteString(e.Code.String())
	switch {
	case e.Detail != "":
		b.WriteString(": ")
		b.WriteString(e.Detail)
	case e.Resource != None:
		fmt.Fprintf(&b, " 0x%x", uint32(e.Resource))
	}
	return b.String()
}

// Is makes errors.Is(err, target) match partially: zero-valued fields
// of the target act as wildcards, so the ErrBad* sentinels match any
// error of their code while a fully-populated target requires an exact
// match.
func (e *XError) Is(target error) bool {
	t, ok := target.(*XError)
	if !ok {
		return false
	}
	if t.Code != 0 && t.Code != e.Code {
		return false
	}
	if t.Major != MajorNone && t.Major != e.Major {
		return false
	}
	if t.Resource != None && t.Resource != e.Resource {
		return false
	}
	return true
}

// Sentinels for errors.Is: match any XError with the given code.
var (
	ErrBadRequest  = &XError{Code: BadRequest}
	ErrBadValue    = &XError{Code: BadValue}
	ErrBadWindow   = &XError{Code: BadWindow}
	ErrBadAtom     = &XError{Code: BadAtom}
	ErrBadMatch    = &XError{Code: BadMatch}
	ErrBadDrawable = &XError{Code: BadDrawable}
	ErrBadAccess   = &XError{Code: BadAccess}
)

// CodeOf extracts the protocol error code from err's chain. ok is false
// when err carries no XError.
func CodeOf(err error) (ErrorCode, bool) {
	var xe *XError
	if errors.As(err, &xe) {
		return xe.Code, true
	}
	return 0, false
}
