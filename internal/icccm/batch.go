package icccm

import (
	"repro/internal/xproto"
	"repro/internal/xserver"
)

// The multi-property fetcher. GetManageProps interns every ICCCM atom
// the manage path needs in one InternAtoms call, then issues one
// lock-free GetProperty per property. Each property keeps the package's
// uniform (value, ok, error) contract: a failure on one property (fault
// injection, a window dying mid-fetch) is confined to that property's
// Err and the rest still decode.

// PropValue is one property's decoded outcome in a multi-property fetch —
// Prop.Get's (value, ok, error) triple as a struct:
//
//   - OK=false, Err=nil: the property is simply not set.
//   - OK=false, Err!=nil: the request failed or the value was
//     malformed; route Err through the degradation check.
//   - OK=true: Value holds the decoded property.
type PropValue[T any] struct {
	Value T
	OK    bool
	Err   error
}

// getValue reads property atom from w and applies p's decoder.
func getValue[T any](p Prop[T], c *xserver.Conn, w xproto.XID, atom xproto.Atom) PropValue[T] {
	raw, ok, err := c.GetProperty(w, atom)
	if err != nil || !ok {
		return PropValue[T]{Err: err}
	}
	v, err := p.Decode(c, raw.Data)
	if err != nil {
		return PropValue[T]{Err: err}
	}
	return PropValue[T]{Value: v, OK: true}
}

// ManageProps is every client property the manage path reads, fetched
// together.
type ManageProps struct {
	Name      PropValue[string]
	IconName  PropValue[string]
	Class     PropValue[Class]
	Command   PropValue[[]string]
	Machine   PropValue[string]
	Hints     PropValue[Hints]
	Normal    PropValue[NormalHints]
	Transient PropValue[xproto.XID]
}

var managePropNames = [...]string{
	PropName.Name,
	PropIconName.Name,
	PropClass.Name,
	PropCommand.Name,
	PropClientMachine.Name,
	PropHints.Name,
	PropNormalHints.Name,
	PropTransientFor.Name,
}

// GetManageProps reads WM_NAME, WM_ICON_NAME, WM_CLASS, WM_COMMAND,
// WM_CLIENT_MACHINE, WM_HINTS, WM_NORMAL_HINTS and WM_TRANSIENT_FOR
// from w, one GetProperty request per property. It is safe to call
// concurrently from adoption workers: it only issues read requests on
// the connection.
func GetManageProps(c *xserver.Conn, w xproto.XID) ManageProps {
	var atoms [len(managePropNames)]xproto.Atom
	c.InternAtoms(managePropNames[:], atoms[:])
	return ManageProps{
		Name:      getValue(PropName, c, w, atoms[0]),
		IconName:  getValue(PropIconName, c, w, atoms[1]),
		Class:     getValue(PropClass, c, w, atoms[2]),
		Command:   getValue(PropCommand, c, w, atoms[3]),
		Machine:   getValue(PropClientMachine, c, w, atoms[4]),
		Hints:     getValue(PropHints, c, w, atoms[5]),
		Normal:    getValue(PropNormalHints, c, w, atoms[6]),
		Transient: getValue(PropTransientFor, c, w, atoms[7]),
	}
}
