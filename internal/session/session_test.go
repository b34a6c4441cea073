package session

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/xproto"
)

func paperHint() Hint {
	// The paper's example client startup script:
	//   swmhints -geometry 120x120+1010+359 -icongeometry +0+0 \
	//       -state NormalState -cmd "oclock -geom 100x100 "
	//   oclock -geom 100x100 &
	return Hint{
		Geometry:     "120x120+1010+359",
		IconGeometry: "+0+0",
		State:        "NormalState",
		Cmd:          "oclock -geom 100x100 ",
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := paperHint()
	out, err := Decode(Encode(in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip: got %+v, want %+v", out, in)
	}
}

func TestEncodeDecodeAllFields(t *testing.T) {
	in := Hint{
		Geometry:     "80x24+5-10",
		IconGeometry: "-0+0",
		State:        "IconicState",
		Sticky:       true,
		IconOnRoot:   true,
		Cmd:          `xterm -T "remote shell" `,
		Machine:      "kandinsky",
	}
	out, err := Decode(Encode(in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("got %+v, want %+v", out, in)
	}
}

func TestDecodeErrors(t *testing.T) {
	bad := []string{
		"",
		"-geometry 100x100",             // missing -cmd
		`-cmd "oclock "`,                // missing -geometry
		`-geometry 100x100 -cmd oclock`, // unquoted cmd
		`-geometry 100x100 -cmd "x" -bogus`,
	}
	for _, line := range bad {
		if _, err := Decode(line); err == nil {
			t.Errorf("Decode(%q) accepted", line)
		}
	}
}

func TestDecodeDefaultsState(t *testing.T) {
	h, err := Decode(`-geometry 100x100+0+0 -cmd "xterm "`)
	if err != nil {
		t.Fatal(err)
	}
	if h.State != "NormalState" {
		t.Errorf("state = %q", h.State)
	}
	if h.StateNumber() != xproto.NormalState {
		t.Errorf("state number = %d", h.StateNumber())
	}
}

func TestStateNumber(t *testing.T) {
	if (Hint{State: "IconicState"}).StateNumber() != xproto.IconicState {
		t.Error("IconicState mismapped")
	}
	if (Hint{State: "NormalState"}).StateNumber() != xproto.NormalState {
		t.Error("NormalState mismapped")
	}
}

func TestHintGeometryParse(t *testing.T) {
	g, err := paperHint().ParseGeometry()
	if err != nil {
		t.Fatal(err)
	}
	if g.Width != 120 || g.X != 1010 || g.Y != 359 {
		t.Errorf("%+v", g)
	}
}

func TestTableMatchConsumesEntry(t *testing.T) {
	data := Encode(paperHint()) + "\n" +
		Encode(Hint{Geometry: "80x24+0+0", Cmd: "xterm ", State: "IconicState"})
	tbl, bad := NewTable(data)
	if bad != 0 || tbl.Len() != 2 {
		t.Fatalf("bad=%d len=%d", bad, tbl.Len())
	}
	h, ok := tbl.Match([]string{"oclock", "-geom", "100x100"}, "")
	if !ok {
		t.Fatal("oclock not matched")
	}
	if h.Geometry != "120x120+1010+359" {
		t.Errorf("geometry = %q", h.Geometry)
	}
	if tbl.Len() != 1 {
		t.Error("matched entry not consumed")
	}
	// Second identical command no longer matches.
	if _, ok := tbl.Match([]string{"oclock", "-geom", "100x100"}, ""); ok {
		t.Error("consumed entry matched again")
	}
}

func TestTableMachineMatching(t *testing.T) {
	data := Encode(Hint{Geometry: "10x10+0+0", Cmd: "xload ", Machine: "hosta"}) + "\n" +
		Encode(Hint{Geometry: "20x20+5+5", Cmd: "xload ", Machine: "hostb"})
	tbl, _ := NewTable(data)
	h, ok := tbl.Match([]string{"xload"}, "hostb")
	if !ok || h.Machine != "hostb" {
		t.Fatalf("h=%+v ok=%v", h, ok)
	}
	// hosta entry remains for hosta.
	h, ok = tbl.Match([]string{"xload"}, "hosta")
	if !ok || h.Machine != "hosta" {
		t.Fatalf("h=%+v ok=%v", h, ok)
	}
}

func TestTableDuplicateCommandsFirstWins(t *testing.T) {
	// Paper §7: "The scheme outlined above breaks down if two windows
	// have identical WM_COMMAND properties" — first match wins.
	data := Encode(Hint{Geometry: "10x10+0+0", Cmd: "xterm "}) + "\n" +
		Encode(Hint{Geometry: "20x20+100+100", Cmd: "xterm "})
	tbl, _ := NewTable(data)
	h1, _ := tbl.Match([]string{"xterm"}, "")
	h2, _ := tbl.Match([]string{"xterm"}, "")
	if h1.Geometry != "10x10+0+0" || h2.Geometry != "20x20+100+100" {
		t.Errorf("order violated: %q then %q", h1.Geometry, h2.Geometry)
	}
}

func TestTableSkipsMalformedRecords(t *testing.T) {
	data := "garbage record\n" + Encode(paperHint())
	tbl, bad := NewTable(data)
	if bad != 1 || tbl.Len() != 1 {
		t.Errorf("bad=%d len=%d", bad, tbl.Len())
	}
}

func TestCommandString(t *testing.T) {
	// Trailing space per argument, matching the paper's example string.
	got := CommandString([]string{"oclock", "-geom", "100x100"})
	if got != "oclock -geom 100x100 " {
		t.Errorf("got %q", got)
	}
}

func TestWritePlacesPaperExample(t *testing.T) {
	var buf bytes.Buffer
	err := WritePlaces(&buf, []ClientRecord{{Hint: paperHint()}}, "")
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Two lines per client: swmhints invocation, then the exact
	// WM_COMMAND invocation backgrounded.
	if !strings.Contains(out, "swmhints -geometry 120x120+1010+359 -icongeometry +0+0") {
		t.Errorf("swmhints line wrong:\n%s", out)
	}
	if !strings.Contains(out, "-state NormalState") {
		t.Errorf("state missing:\n%s", out)
	}
	if !strings.Contains(out, `-cmd "oclock -geom 100x100 "`) {
		t.Errorf("cmd missing:\n%s", out)
	}
	if !strings.Contains(out, "oclock -geom 100x100 &") {
		t.Errorf("client invocation missing:\n%s", out)
	}
}

func TestWritePlacesRemoteClient(t *testing.T) {
	var buf bytes.Buffer
	rec := ClientRecord{Hint: Hint{
		Geometry: "80x24+10+10", Cmd: "xterm ", Machine: "kandinsky",
	}}
	if err := WritePlaces(&buf, []ClientRecord{rec}, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `rsh kandinsky "xterm" &`) {
		t.Errorf("remote invocation wrong:\n%s", buf.String())
	}
}

func TestWritePlacesCustomRemoteFormat(t *testing.T) {
	var buf bytes.Buffer
	rec := ClientRecord{Hint: Hint{
		Geometry: "80x24+10+10", Cmd: "xterm ", Machine: "kandinsky",
	}}
	format := `rsh %machine% "setenv DISPLAY here:0; %command%"`
	if err := WritePlaces(&buf, []ClientRecord{rec}, format); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `rsh kandinsky "setenv DISPLAY here:0; xterm" &`) {
		t.Errorf("custom remote format ignored:\n%s", buf.String())
	}
}

func TestWritePlacesDeterministicOrder(t *testing.T) {
	recs := []ClientRecord{
		{Hint: Hint{Geometry: "1x1+0+0", Cmd: "zz "}},
		{Hint: Hint{Geometry: "1x1+0+0", Cmd: "aa "}},
	}
	var b1, b2 bytes.Buffer
	if err := WritePlaces(&b1, recs, ""); err != nil {
		t.Fatal(err)
	}
	recs[0], recs[1] = recs[1], recs[0]
	if err := WritePlaces(&b2, recs, ""); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Error("places output depends on input order")
	}
	if strings.Index(b1.String(), "aa") > strings.Index(b1.String(), "zz") {
		t.Error("not sorted by command")
	}
}

func TestParsePlacesRoundTrip(t *testing.T) {
	recs := []ClientRecord{
		{Hint: paperHint()},
		{Hint: Hint{Geometry: "80x24+5+5", State: "IconicState", Sticky: true, Cmd: "xterm ", Machine: "far"}},
	}
	var buf bytes.Buffer
	if err := WritePlaces(&buf, recs, ""); err != nil {
		t.Fatal(err)
	}
	hints, err := ParsePlaces(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(hints) != 2 {
		t.Fatalf("got %d hints", len(hints))
	}
	// Sorted order: oclock before xterm.
	if hints[0] != recs[0].Hint {
		t.Errorf("hint 0 = %+v", hints[0])
	}
	if hints[1] != recs[1].Hint {
		t.Errorf("hint 1 = %+v", hints[1])
	}
}

// Property: Encode/Decode round-trips arbitrary printable hints.
func TestEncodeDecodeProperty(t *testing.T) {
	f := func(w, h uint8, x, y int8, iconic, sticky bool, cmdWord uint8) bool {
		state := "NormalState"
		if iconic {
			state = "IconicState"
		}
		cmd := "cmd" + strings.Repeat("x", int(cmdWord%8)) + " -opt val "
		in := Hint{
			Geometry: (Hint{}).Geometry,
			State:    state,
			Sticky:   sticky,
			Cmd:      cmd,
		}
		in.Geometry = geomString(int(w)+1, int(h)+1, int(x), int(y))
		out, err := Decode(Encode(in))
		return err == nil && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func geomString(w, h, x, y int) string {
	xs := fmt.Sprintf("+%d", x)
	if x < 0 {
		xs = fmt.Sprintf("-%d", -x)
	}
	ys := fmt.Sprintf("+%d", y)
	if y < 0 {
		ys = fmt.Sprintf("-%d", -y)
	}
	return fmt.Sprintf("%dx%d%s%s", w, h, xs, ys)
}
