// Package geom parses X geometry strings ("=120x120+1010+359",
// "+0-0", "100x100") and swm panel position strings, where the X
// component may be "C" to center an object within its row (the paper's
// `button name +C+0`). It also applies parsed geometry to a reference
// rectangle with the standard X semantics for negative offsets
// (distance from the right/bottom edge).
package geom

import (
	"fmt"
	"strconv"
	"strings"
)

// Clamp bounds v to [lo, hi]. Desktop coordinate writes go through it:
// the Virtual Desktop may be as large as the usable area of an X
// window, 32767x32767 pixels (paper §6), so every pan offset and
// desktop dimension is clamped before it rides the wire as int16. When
// hi < lo the lower bound wins, matching how a desktop smaller than the
// screen pins the pan to zero.
func Clamp(v, lo, hi int) int {
	if hi < lo {
		hi = lo
	}
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Geometry is a parsed X geometry string. HasSize/HasPosition report
// which parts were present.
type Geometry struct {
	HasSize     bool
	Width       int
	Height      int
	HasPosition bool
	X           int
	Y           int
	// XNegative/YNegative record the sign characters: "-0" differs from
	// "+0" (it means "flush against the right/bottom edge").
	XNegative bool
	YNegative bool
}

// Parse parses an X geometry string. The leading "=" of old-style
// geometry strings is accepted and ignored.
func Parse(s string) (Geometry, error) {
	var g Geometry
	orig := s
	s = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(s), "="))
	if s == "" {
		return g, fmt.Errorf("geom: empty geometry string")
	}
	i := 0
	// Size part: WIDTHxHEIGHT
	if i < len(s) && s[i] != '+' && s[i] != '-' {
		w, n, err := scanUint(s[i:])
		if err != nil {
			return g, fmt.Errorf("geom: bad width in %q", orig)
		}
		i += n
		if i >= len(s) || (s[i] != 'x' && s[i] != 'X') {
			return g, fmt.Errorf("geom: missing 'x' in %q", orig)
		}
		i++
		h, n, err := scanUint(s[i:])
		if err != nil {
			return g, fmt.Errorf("geom: bad height in %q", orig)
		}
		i += n
		g.HasSize = true
		g.Width, g.Height = w, h
	}
	// Position part: {+-}X{+-}Y
	if i < len(s) {
		if s[i] != '+' && s[i] != '-' {
			return g, fmt.Errorf("geom: bad position in %q", orig)
		}
		g.XNegative = s[i] == '-'
		i++
		x, n, err := scanUint(s[i:])
		if err != nil {
			return g, fmt.Errorf("geom: bad x offset in %q", orig)
		}
		i += n
		if i >= len(s) || (s[i] != '+' && s[i] != '-') {
			return g, fmt.Errorf("geom: missing y offset in %q", orig)
		}
		g.YNegative = s[i] == '-'
		i++
		y, n, err := scanUint(s[i:])
		if err != nil {
			return g, fmt.Errorf("geom: bad y offset in %q", orig)
		}
		i += n
		g.HasPosition = true
		g.X, g.Y = x, y
		if g.XNegative {
			g.X = -x
		}
		if g.YNegative {
			g.Y = -y
		}
	}
	if i != len(s) {
		return g, fmt.Errorf("geom: trailing garbage in %q", orig)
	}
	if !g.HasSize && !g.HasPosition {
		return g, fmt.Errorf("geom: nothing parsed from %q", orig)
	}
	return g, nil
}

func scanUint(s string) (val, n int, err error) {
	for n < len(s) && s[n] >= '0' && s[n] <= '9' {
		n++
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("no digits")
	}
	v, err := strconv.Atoi(s[:n])
	return v, n, err
}

// String renders the geometry back in X syntax.
func (g Geometry) String() string {
	var sb strings.Builder
	if g.HasSize {
		fmt.Fprintf(&sb, "%dx%d", g.Width, g.Height)
	}
	if g.HasPosition {
		x, y := g.X, g.Y
		if g.XNegative {
			fmt.Fprintf(&sb, "-%d", -x)
		} else {
			fmt.Fprintf(&sb, "+%d", x)
		}
		if g.YNegative {
			fmt.Fprintf(&sb, "-%d", -y)
		} else {
			fmt.Fprintf(&sb, "+%d", y)
		}
	}
	return sb.String()
}

// Apply positions a window of size (w, h) — overridden by the geometry's
// own size if present — within a reference area of size (refW, refH),
// honouring negative offsets as distances from the right/bottom edges.
// It returns the final x, y, width, height.
func (g Geometry) Apply(refW, refH, w, h int) (x, y, outW, outH int) {
	outW, outH = w, h
	if g.HasSize {
		outW, outH = g.Width, g.Height
	}
	if g.HasPosition {
		x, y = g.X, g.Y
		if g.XNegative {
			x = refW + g.X - outW // g.X <= 0
		}
		if g.YNegative {
			y = refH + g.Y - outH
		}
	}
	return x, y, outW, outH
}

// --- Panel positions ----------------------------------------------------

// PanelPos is a parsed swm panel position: the X component selects the
// column (possibly centered or right-relative), the Y component the row.
type PanelPos struct {
	Col           int
	ColCentered   bool
	ColFromRight  bool
	Row           int
	RowCentered   bool
	RowFromBottom bool
}

// ParsePanelPos parses positions of the form "+0+1", "+C+0", "-0+0":
// column then row, where "C" centers the object in its row (column) or
// panel (row), and "-" counts from the right/bottom.
func ParsePanelPos(s string) (PanelPos, error) {
	var p PanelPos
	orig := s
	s = strings.TrimSpace(s)
	if len(s) < 4 {
		return p, fmt.Errorf("geom: panel position %q too short", orig)
	}
	var err error
	p.Col, p.ColCentered, p.ColFromRight, s, err = scanPanelComponent(s, orig)
	if err != nil {
		return p, err
	}
	p.Row, p.RowCentered, p.RowFromBottom, s, err = scanPanelComponent(s, orig)
	if err != nil {
		return p, err
	}
	if s != "" {
		return p, fmt.Errorf("geom: trailing garbage in panel position %q", orig)
	}
	return p, nil
}

func scanPanelComponent(s, orig string) (val int, centered, negative bool, rest string, err error) {
	if s == "" || (s[0] != '+' && s[0] != '-') {
		return 0, false, false, "", fmt.Errorf("geom: panel position %q: expected '+' or '-'", orig)
	}
	negative = s[0] == '-'
	s = s[1:]
	if s == "" {
		return 0, false, false, "", fmt.Errorf("geom: panel position %q truncated", orig)
	}
	if s[0] == 'C' || s[0] == 'c' {
		return 0, true, negative, s[1:], nil
	}
	v, n, err := scanUint(s)
	if err != nil {
		return 0, false, false, "", fmt.Errorf("geom: panel position %q: bad number", orig)
	}
	return v, false, negative, s[n:], nil
}
