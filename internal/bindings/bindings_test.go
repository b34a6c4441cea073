package bindings

import (
	"strings"
	"testing"

	"repro/internal/xproto"
)

// The paper's example, verbatim (modulo resource-file continuations,
// which arrive here as newlines).
const paperExample = `<Btn1> : f.raise
<Btn2> : f.save f.zoom
<Key>Up : f.warpvertical(-50)`

func TestParsePaperExample(t *testing.T) {
	tbl, err := Parse(paperExample)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Bindings) != 3 {
		t.Fatalf("got %d bindings, want 3", len(tbl.Bindings))
	}
	b0 := tbl.Bindings[0]
	if b0.Event != xproto.ButtonPress || b0.Button != 1 {
		t.Errorf("binding 0: %+v", b0)
	}
	if len(b0.Invocations) != 1 || b0.Invocations[0].Name != "f.raise" {
		t.Errorf("binding 0 invocations: %v", b0.Invocations)
	}
	b1 := tbl.Bindings[1]
	if len(b1.Invocations) != 2 || b1.Invocations[0].Name != "f.save" || b1.Invocations[1].Name != "f.zoom" {
		t.Errorf("binding 1 invocations: %v (want two functions per binding)", b1.Invocations)
	}
	b2 := tbl.Bindings[2]
	if b2.Event != xproto.KeyPress || b2.Keysym != xproto.StringToKeysym("Up") {
		t.Errorf("binding 2: %+v", b2)
	}
	if !b2.Invocations[0].HasArg || b2.Invocations[0].Arg != "-50" {
		t.Errorf("binding 2 arg: %+v", b2.Invocations[0])
	}
}

func TestParseModifiers(t *testing.T) {
	tbl, err := Parse("Ctrl Shift <Btn3> : f.lower")
	if err != nil {
		t.Fatal(err)
	}
	b := tbl.Bindings[0]
	want := xproto.ControlMask | xproto.ShiftMask
	if b.Modifiers != want {
		t.Errorf("modifiers = %b, want %b", b.Modifiers, want)
	}
}

func TestParseMetaAlias(t *testing.T) {
	for _, src := range []string{"Meta <Btn1> : f.move", "Alt <Btn1> : f.move", "Mod1 <Btn1> : f.move"} {
		tbl, err := Parse(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if tbl.Bindings[0].Modifiers != xproto.Mod1Mask {
			t.Errorf("%q: modifiers = %b", src, tbl.Bindings[0].Modifiers)
		}
	}
}

func TestParseAnyModifier(t *testing.T) {
	tbl, err := Parse("Any <Btn1> : f.focus")
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Bindings[0].AnyModifier {
		t.Error("AnyModifier not set")
	}
}

func TestParseButtonRelease(t *testing.T) {
	tbl, err := Parse("<Btn1Up> : f.raise")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Bindings[0].Event != xproto.ButtonRelease || tbl.Bindings[0].Button != 1 {
		t.Errorf("%+v", tbl.Bindings[0])
	}
}

func TestParseEnterLeaveMotion(t *testing.T) {
	tbl, err := Parse("<Enter> : f.focus\n<Leave> : f.unfocus\n<Motion> : f.track")
	if err != nil {
		t.Fatal(err)
	}
	events := []xproto.EventType{xproto.EnterNotify, xproto.LeaveNotify, xproto.MotionNotify}
	for i, want := range events {
		if tbl.Bindings[i].Event != want {
			t.Errorf("binding %d: event = %v, want %v", i, tbl.Bindings[i].Event, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"f.raise",                // no event
		"<Btn9> : f.raise",       // bad button
		"<Key> : f.raise",        // missing keysym
		"<Key>Upp : f.raise",     // unknown keysym
		"<KeyUp>Fn : f.raise",    // unknown keysym
		"<Btn1> : raise",         // not an f. function
		"<Btn1> : f.move(50",     // unterminated arg
		"Hyper <Btn1> : f.raise", // unknown modifier
		"<Wheel> : f.raise",      // unknown event
		"<Btn1>Up : f.raise",     // detail on a button event
		"<Btn1> :",               // empty function list
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted", src)
		}
	}
}

func TestLookupButtonMatching(t *testing.T) {
	tbl, err := Parse("<Btn1> : f.raise\nMeta <Btn1> : f.move\n<Btn2> : f.lower")
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Lookup(xproto.ButtonPress, 1, xproto.NoSymbol, 0); got == nil || got[0].Name != "f.raise" {
		t.Errorf("plain Btn1 -> %v", got)
	}
	if got := tbl.Lookup(xproto.ButtonPress, 1, xproto.NoSymbol, xproto.Mod1Mask); got == nil || got[0].Name != "f.move" {
		t.Errorf("Meta Btn1 -> %v", got)
	}
	if got := tbl.Lookup(xproto.ButtonPress, 2, xproto.NoSymbol, 0); got == nil || got[0].Name != "f.lower" {
		t.Errorf("Btn2 -> %v", got)
	}
	if got := tbl.Lookup(xproto.ButtonPress, 3, xproto.NoSymbol, 0); got != nil {
		t.Errorf("Btn3 matched: %v", got)
	}
	// Modifier state must match exactly.
	if got := tbl.Lookup(xproto.ButtonPress, 1, xproto.NoSymbol, xproto.ControlMask); got != nil {
		t.Errorf("Ctrl Btn1 matched plain binding: %v", got)
	}
}

func TestLookupIgnoresButtonStateBits(t *testing.T) {
	tbl, _ := Parse("<Btn1> : f.raise")
	state := xproto.Button1Mask // button state bit set during press
	if got := tbl.Lookup(xproto.ButtonPress, 1, xproto.NoSymbol, state); got == nil {
		t.Error("button state bits must not defeat modifier matching")
	}
}

func TestLookupKey(t *testing.T) {
	tbl, _ := Parse("<Key>Up : f.warpvertical(-50)\n<Key>Down : f.warpvertical(50)")
	got := tbl.Lookup(xproto.KeyPress, 0, xproto.StringToKeysym("Up"), 0)
	if got == nil || got[0].Arg != "-50" {
		t.Errorf("Up -> %v", got)
	}
	got = tbl.Lookup(xproto.KeyPress, 0, xproto.StringToKeysym("Down"), 0)
	if got == nil || got[0].Arg != "50" {
		t.Errorf("Down -> %v", got)
	}
	if got := tbl.Lookup(xproto.KeyPress, 0, xproto.StringToKeysym("Left"), 0); got != nil {
		t.Errorf("Left matched: %v", got)
	}
}

func TestLookupAnyModifier(t *testing.T) {
	tbl, _ := Parse("Any <Btn1> : f.focus")
	for _, state := range []uint16{0, xproto.ControlMask, xproto.Mod1Mask | xproto.ShiftMask} {
		if got := tbl.Lookup(xproto.ButtonPress, 1, xproto.NoSymbol, state); got == nil {
			t.Errorf("state %b did not match Any binding", state)
		}
	}
}

func TestLookupFirstMatchWins(t *testing.T) {
	tbl, _ := Parse("<Btn1> : f.raise\n<Btn1> : f.lower")
	got := tbl.Lookup(xproto.ButtonPress, 1, xproto.NoSymbol, 0)
	if got[0].Name != "f.raise" {
		t.Errorf("got %v, want first binding", got)
	}
}

// --- invocation modes (paper §4.2: five ways to call f.iconify) ---

func TestParseTargetModes(t *testing.T) {
	cases := []struct {
		src  string
		mode TargetMode
	}{
		{"f.iconify", TargetCurrent},
		{"f.iconify(multiple)", TargetMultiple},
		{"f.iconify(blob)", TargetClass},
		{"f.iconify(#$)", TargetUnderPointer},
		{"f.iconify(#0x1234)", TargetWindowID},
	}
	for _, tc := range cases {
		invs, err := ParseInvocations(tc.src)
		if err != nil {
			t.Fatalf("%q: %v", tc.src, err)
		}
		tgt, err := ParseTarget(invs[0])
		if err != nil {
			t.Fatalf("%q: %v", tc.src, err)
		}
		if tgt.Mode != tc.mode {
			t.Errorf("%q: mode = %v, want %v", tc.src, tgt.Mode, tc.mode)
		}
	}
}

func TestParseTargetWindowID(t *testing.T) {
	invs, _ := ParseInvocations("f.raise(#0x1234)")
	tgt, err := ParseTarget(invs[0])
	if err != nil {
		t.Fatal(err)
	}
	if tgt.Window != 0x1234 {
		t.Errorf("window = %#x, want 0x1234", uint32(tgt.Window))
	}
	invs, _ = ParseInvocations("f.raise(#4660)") // decimal form
	tgt, err = ParseTarget(invs[0])
	if err != nil {
		t.Fatal(err)
	}
	if tgt.Window != 4660 {
		t.Errorf("window = %d, want 4660", uint32(tgt.Window))
	}
}

func TestParseTargetClassName(t *testing.T) {
	invs, _ := ParseInvocations("f.iconify(blob)")
	tgt, _ := ParseTarget(invs[0])
	if tgt.Class != "blob" {
		t.Errorf("class = %q", tgt.Class)
	}
}

func TestParseTargetNumeric(t *testing.T) {
	invs, _ := ParseInvocations("f.warpvertical(-50)")
	tgt, _ := ParseTarget(invs[0])
	if !tgt.HasNum || tgt.Num != -50 {
		t.Errorf("num = %d hasNum=%v", tgt.Num, tgt.HasNum)
	}
}

func TestParseTargetBadWindowID(t *testing.T) {
	invs, _ := ParseInvocations("f.raise(#0xzz)")
	if _, err := ParseTarget(invs[0]); err == nil {
		t.Error("bad window id accepted")
	}
}

func TestInvocationString(t *testing.T) {
	invs, _ := ParseInvocations("f.iconify(blob) f.raise")
	if invs[0].String() != "f.iconify(blob)" || invs[1].String() != "f.raise" {
		t.Errorf("%v", invs)
	}
}

func TestParseInvocationsWhitespace(t *testing.T) {
	invs, err := ParseInvocations("  f.save   f.zoom\tf.raise ")
	if err != nil {
		t.Fatal(err)
	}
	if len(invs) != 3 {
		t.Fatalf("got %d invocations: %v", len(invs), invs)
	}
	names := []string{"f.save", "f.zoom", "f.raise"}
	for i, want := range names {
		if invs[i].Name != want {
			t.Errorf("inv %d = %q, want %q", i, invs[i].Name, want)
		}
	}
}

func TestParseLargeBindingSet(t *testing.T) {
	var sb strings.Builder
	for i := 1; i <= 5; i++ {
		sb.WriteString("<Btn")
		sb.WriteByte(byte('0' + i))
		sb.WriteString("> : f.raise\n")
	}
	tbl, err := Parse(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Bindings) != 5 {
		t.Errorf("got %d bindings", len(tbl.Bindings))
	}
}

func BenchmarkParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(paperExample); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLookup(b *testing.B) {
	tbl, _ := Parse(paperExample)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tbl.Lookup(xproto.ButtonPress, 2, xproto.NoSymbol, 0) == nil {
			b.Fatal("no match")
		}
	}
}
