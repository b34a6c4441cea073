// Package session implements swm's primitive session management
// (paper §7): a two-step protocol in which (1) an swmhints program
// provides swm with hints about each client's previous state by
// appending records to a root-window property, and (2) swm interprets
// those hints when clients are reparented, matching on WM_COMMAND (and
// possibly WM_CLIENT_MACHINE) and restoring window size, location, icon
// location, sticky state, and normal/iconic state.
//
// The f.places command writes a file "suitable to replace the .xinitrc
// file": two lines per client — an swmhints invocation and the exact
// WM_COMMAND invocation — so clients restart "regardless of what toolkit
// they were built on or what remote host (if any) they were running on".
package session

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/geom"
	"repro/internal/xproto"
)

// Hint is one client's saved state, as carried by an swmhints
// invocation.
type Hint struct {
	// Geometry is the frame geometry in desktop coordinates
	// ("120x120+1010+359" in the paper's example).
	Geometry string
	// IconGeometry is the icon position ("+0+0").
	IconGeometry string
	// State is "NormalState" or "IconicState".
	State string
	// Sticky records the sticky-window flag.
	Sticky bool
	// IconOnRoot records whether the icon lived on the root window (vs
	// in an icon holder).
	IconOnRoot bool
	// Cmd is the exact WM_COMMAND string ("oclock -geom 100x100 ").
	Cmd string
	// Machine is WM_CLIENT_MACHINE, empty for local clients.
	Machine string
}

// StateNumber converts the symbolic state to a WM_STATE value.
func (h Hint) StateNumber() int {
	if h.State == "IconicState" {
		return xproto.IconicState
	}
	return xproto.NormalState
}

// ParseGeometry returns the parsed frame geometry.
func (h Hint) ParseGeometry() (geom.Geometry, error) {
	return geom.Parse(h.Geometry)
}

// --- Wire encoding -----------------------------------------------------------
//
// swmhints appends one record per invocation to the SWM_HINTS property
// on the root window; records are newline-separated lists of
// space-separated key=value options with the command quoted.

// Encode serializes a hint as one swmhints record.
func Encode(h Hint) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "-geometry %s", h.Geometry)
	if h.IconGeometry != "" {
		fmt.Fprintf(&sb, " -icongeometry %s", h.IconGeometry)
	}
	state := h.State
	if state == "" {
		state = "NormalState"
	}
	fmt.Fprintf(&sb, " -state %s", state)
	if h.Sticky {
		sb.WriteString(" -sticky")
	}
	if h.IconOnRoot {
		sb.WriteString(" -rooticon")
	}
	if h.Machine != "" {
		fmt.Fprintf(&sb, " -machine %s", h.Machine)
	}
	fmt.Fprintf(&sb, " -cmd %s", strconv.Quote(h.Cmd))
	return sb.String()
}

// Decode parses one swmhints record.
func Decode(line string) (Hint, error) {
	var h Hint
	rest := strings.TrimSpace(line)
	for rest != "" {
		var opt string
		opt, rest = nextToken(rest)
		switch opt {
		case "-geometry":
			h.Geometry, rest = nextToken(rest)
		case "-icongeometry":
			h.IconGeometry, rest = nextToken(rest)
		case "-state":
			h.State, rest = nextToken(rest)
		case "-sticky":
			h.Sticky = true
		case "-rooticon":
			h.IconOnRoot = true
		case "-machine":
			h.Machine, rest = nextToken(rest)
		case "-cmd":
			rest = strings.TrimSpace(rest)
			if !strings.HasPrefix(rest, "\"") {
				return h, fmt.Errorf("session: -cmd argument must be quoted in %q", line)
			}
			cmd, err := strconv.QuotedPrefix(rest)
			if err != nil {
				return h, fmt.Errorf("session: bad -cmd quoting in %q: %w", line, err)
			}
			unq, err := strconv.Unquote(cmd)
			if err != nil {
				return h, err
			}
			h.Cmd = unq
			rest = strings.TrimSpace(rest[len(cmd):])
		case "":
			// done
		default:
			return h, fmt.Errorf("session: unknown swmhints option %q", opt)
		}
	}
	if h.Geometry == "" {
		return h, fmt.Errorf("session: record %q missing -geometry", line)
	}
	if h.Cmd == "" {
		return h, fmt.Errorf("session: record %q missing -cmd", line)
	}
	if h.State == "" {
		h.State = "NormalState"
	}
	return h, nil
}

func nextToken(s string) (tok, rest string) {
	s = strings.TrimSpace(s)
	i := strings.IndexAny(s, " \t")
	if i < 0 {
		return s, ""
	}
	return s[:i], strings.TrimSpace(s[i:])
}

// --- Hint table ---------------------------------------------------------------

// Table holds pending restart hints. When swm starts up it reads the
// SWM_HINTS property into a Table; each reparented window consumes its
// matching entry.
type Table struct {
	hints []Hint
}

// NewTable builds a table from raw property data (newline-separated
// records). Malformed records are skipped, matching swm's forgiving
// startup behavior; the count of bad records is returned.
func NewTable(data string) (*Table, int) {
	t := &Table{}
	bad := 0
	for _, line := range strings.Split(data, "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		h, err := Decode(line)
		if err != nil {
			bad++
			continue
		}
		t.hints = append(t.hints, h)
	}
	return t, bad
}

// Len reports the number of unconsumed hints.
func (t *Table) Len() int { return len(t.hints) }

// Match finds and removes the hint whose command string equals the
// joined WM_COMMAND argv and whose machine matches WM_CLIENT_MACHINE.
// The paper: "the table is searched for a matching WM_COMMAND string and
// possibly a matching WM_CLIENT_MACHINE property. If a match is found,
// the entry is removed from the table."
//
// The scheme breaks down if two windows have identical WM_COMMAND
// properties (paper §7): the first match wins, exactly as in swm.
func (t *Table) Match(argv []string, machine string) (Hint, bool) {
	cmd := CommandString(argv)
	for i, h := range t.hints {
		if h.Cmd != cmd {
			continue
		}
		if h.Machine != "" && h.Machine != machine {
			continue
		}
		t.hints = append(t.hints[:i], t.hints[i+1:]...)
		return h, true
	}
	return Hint{}, false
}

// CommandString joins argv the way WM_COMMAND strings are compared: a
// trailing space after each argument, matching the paper's example
// ("oclock -geom 100x100 ").
func CommandString(argv []string) string {
	var sb strings.Builder
	for _, a := range argv {
		sb.WriteString(a)
		sb.WriteByte(' ')
	}
	return sb.String()
}

// --- f.places output ------------------------------------------------------------

// ClientRecord is what f.places knows about one managed client.
type ClientRecord struct {
	Hint Hint
}

// RemoteStartFormat is the default customizable string used when
// restarting remote clients (§7.1): %machine% and %command% are
// substituted. A user resource can override it to add PATH/DISPLAY
// setup.
const RemoteStartFormat = `rsh %machine% "%command%"`

// WritePlaces writes the .xinitrc replacement file: for every client,
// an swmhints line followed by the actual client invocation (the exact
// WM_COMMAND string, backgrounded). Remote clients are wrapped with the
// remote-start format. Records are sorted by command for determinism.
func WritePlaces(w io.Writer, records []ClientRecord, remoteFormat string) error {
	if remoteFormat == "" {
		remoteFormat = RemoteStartFormat
	}
	sorted := append([]ClientRecord(nil), records...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Hint.Cmd != sorted[j].Hint.Cmd {
			return sorted[i].Hint.Cmd < sorted[j].Hint.Cmd
		}
		return sorted[i].Hint.Geometry < sorted[j].Hint.Geometry
	})
	if _, err := fmt.Fprintln(w, "#!/bin/sh"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "# Generated by swm f.places — restart saved session"); err != nil {
		return err
	}
	for _, rec := range sorted {
		h := rec.Hint
		var sb strings.Builder
		fmt.Fprintf(&sb, "swmhints -geometry %s", h.Geometry)
		if h.IconGeometry != "" {
			fmt.Fprintf(&sb, " -icongeometry %s", h.IconGeometry)
		}
		state := h.State
		if state == "" {
			state = "NormalState"
		}
		fmt.Fprintf(&sb, " \\\n\t-state %s", state)
		if h.Sticky {
			sb.WriteString(" -sticky")
		}
		if h.IconOnRoot {
			sb.WriteString(" -rooticon")
		}
		if h.Machine != "" {
			fmt.Fprintf(&sb, " -machine %s", h.Machine)
		}
		fmt.Fprintf(&sb, " -cmd %s", strconv.Quote(h.Cmd))
		if _, err := fmt.Fprintln(w, sb.String()); err != nil {
			return err
		}
		invocation := strings.TrimRight(h.Cmd, " ")
		if h.Machine != "" {
			line := strings.ReplaceAll(remoteFormat, "%machine%", h.Machine)
			line = strings.ReplaceAll(line, "%command%", invocation)
			invocation = line
		}
		if _, err := fmt.Fprintf(w, "%s &\n", invocation); err != nil {
			return err
		}
	}
	return nil
}

// ParsePlaces reads a places file back into hint records (used by tests
// and by swm restarts that bootstrap from a places file instead of the
// root property).
func ParsePlaces(data string) ([]Hint, error) {
	var out []Hint
	// One logical swmhints invocation may span continuation lines;
	// unfold them before scanning.
	unfolded := strings.ReplaceAll(data, "\\\n", " ")
	for _, line := range strings.Split(unfolded, "\n") {
		trimmed := strings.TrimSpace(line)
		if !strings.HasPrefix(trimmed, "swmhints ") {
			continue
		}
		h, err := Decode(strings.TrimPrefix(trimmed, "swmhints "))
		if err != nil {
			return nil, err
		}
		out = append(out, h)
	}
	return out, nil
}
