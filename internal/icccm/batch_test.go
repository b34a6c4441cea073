package icccm

import (
	"strings"
	"testing"

	"repro/internal/xproto"
	"repro/internal/xserver"
)

func TestGetManagePropsAllPresent(t *testing.T) {
	c, w := testConnWindow(t)
	if err := SetName(c, w, "editor"); err != nil {
		t.Fatal(err)
	}
	if err := SetIconName(c, w, "ed"); err != nil {
		t.Fatal(err)
	}
	if err := SetClass(c, w, Class{Instance: "xedit", Class: "XEdit"}); err != nil {
		t.Fatal(err)
	}
	if err := SetCommand(c, w, []string{"xedit", "-rv"}); err != nil {
		t.Fatal(err)
	}
	if err := SetClientMachine(c, w, "io"); err != nil {
		t.Fatal(err)
	}
	if err := SetHints(c, w, Hints{Flags: StateHint, InitialState: xproto.IconicState}); err != nil {
		t.Fatal(err)
	}
	if err := SetNormalHints(c, w, NormalHints{Flags: PPosition, X: 4, Y: 5}); err != nil {
		t.Fatal(err)
	}
	if err := SetTransientFor(c, w, 0x42); err != nil {
		t.Fatal(err)
	}

	p := GetManageProps(c, w)
	if !p.Name.OK || p.Name.Value != "editor" {
		t.Errorf("Name = %+v, want editor", p.Name)
	}
	if !p.IconName.OK || p.IconName.Value != "ed" {
		t.Errorf("IconName = %+v, want ed", p.IconName)
	}
	if !p.Class.OK || p.Class.Value.Instance != "xedit" || p.Class.Value.Class != "XEdit" {
		t.Errorf("Class = %+v, want xedit/XEdit", p.Class)
	}
	if !p.Command.OK || len(p.Command.Value) != 2 || p.Command.Value[0] != "xedit" {
		t.Errorf("Command = %+v, want [xedit -rv]", p.Command)
	}
	if !p.Machine.OK || p.Machine.Value != "io" {
		t.Errorf("Machine = %+v, want io", p.Machine)
	}
	if !p.Hints.OK || p.Hints.Value.InitialState != xproto.IconicState {
		t.Errorf("Hints = %+v, want iconic", p.Hints)
	}
	if !p.Normal.OK || p.Normal.Value.X != 4 {
		t.Errorf("Normal = %+v, want X=4", p.Normal)
	}
	if !p.Transient.OK || p.Transient.Value != 0x42 {
		t.Errorf("Transient = %+v, want 0x42", p.Transient)
	}
}

func TestGetManagePropsAllAbsent(t *testing.T) {
	c, w := testConnWindow(t)
	p := GetManageProps(c, w)
	for _, pv := range []struct {
		name string
		ok   bool
		err  error
	}{
		{"Name", p.Name.OK, p.Name.Err},
		{"IconName", p.IconName.OK, p.IconName.Err},
		{"Class", p.Class.OK, p.Class.Err},
		{"Command", p.Command.OK, p.Command.Err},
		{"Machine", p.Machine.OK, p.Machine.Err},
		{"Hints", p.Hints.OK, p.Hints.Err},
		{"Normal", p.Normal.OK, p.Normal.Err},
		{"Transient", p.Transient.OK, p.Transient.Err},
	} {
		if pv.ok {
			t.Errorf("%s reported present on a bare window", pv.name)
		}
		if pv.err != nil {
			t.Errorf("%s: unexpected error on a bare window: %v", pv.name, pv.err)
		}
	}
}

// TestGetManagePropsPartialFailure is the contract the multi-property
// fetcher exists for: one property's GetProperty fails (fault injection
// standing in for a window dying mid-fetch), the failure is confined to
// that slot's Err, and every other property still decodes.
func TestGetManagePropsPartialFailure(t *testing.T) {
	c, w := testConnWindow(t)
	if err := SetName(c, w, "editor"); err != nil {
		t.Fatal(err)
	}
	if err := SetClass(c, w, Class{Instance: "xedit", Class: "XEdit"}); err != nil {
		t.Fatal(err)
	}
	if err := SetNormalHints(c, w, NormalHints{Flags: PPosition, X: 4, Y: 5}); err != nil {
		t.Fatal(err)
	}

	// GetManageProps issues its GetProperty requests in managePropNames
	// order; EveryN=3 with Times=1 fails exactly the third one —
	// WM_CLASS — and nothing else.
	c.SetFaultPolicy(&xserver.FaultPolicy{
		Ops: []string{"GetProperty"}, EveryN: 3, Times: 1,
	})
	p := GetManageProps(c, w)
	c.SetFaultPolicy(nil)

	if p.Class.Err == nil || p.Class.OK {
		t.Errorf("Class = %+v, want injected error", p.Class)
	}
	if !p.Name.OK || p.Name.Value != "editor" {
		t.Errorf("Name = %+v, want editor despite Class failure", p.Name)
	}
	if !p.Normal.OK || p.Normal.Value.X != 4 {
		t.Errorf("Normal = %+v, want X=4 despite Class failure", p.Normal)
	}
	if p.Transient.OK || p.Transient.Err != nil {
		t.Errorf("Transient = %+v, want plain absent", p.Transient)
	}
}

// TestGetManagePropsMalformed: a property that is set but undecodable
// reports its decode error in that slot only.
func TestGetManagePropsMalformed(t *testing.T) {
	c, w := testConnWindow(t)
	if err := SetName(c, w, "editor"); err != nil {
		t.Fatal(err)
	}
	// WM_TRANSIENT_FOR must be a 32-bit window; two bytes cannot decode.
	if err := c.ChangeProperty(w, c.InternAtom("WM_TRANSIENT_FOR"), c.InternAtom("WINDOW"),
		8, xproto.PropModeReplace, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	p := GetManageProps(c, w)
	if p.Transient.Err == nil || p.Transient.OK {
		t.Errorf("Transient = %+v, want decode error", p.Transient)
	}
	if p.Transient.Err != nil && !strings.Contains(p.Transient.Err.Error(), "WM_TRANSIENT_FOR") {
		t.Errorf("Transient error %q does not name the property", p.Transient.Err)
	}
	if !p.Name.OK || p.Name.Value != "editor" {
		t.Errorf("Name = %+v, want editor despite Transient decode failure", p.Name)
	}
}
