// Package atomicfield is the golden fixture for the atomicfield
// analyzer: == and != between sync/atomic values are findings, since
// they compile and go vet does not report them; comparing Load results
// is clean.
package atomicfield

import "sync/atomic"

// window mirrors the xserver window's atomic fields, plus the atomic
// screen index it used to have.
type window struct {
	screenIdx atomic.Int32
	parent    atomic.Pointer[window]
	cells     [2]atomic.Uint32
}

// reparentScreen mirrors the cross-screen test ReparentWindow used to
// make before it rewrote a moved subtree's atomic screen index, with
// the Loads dropped: it compiles and vets clean. (ReparentWindow now
// refuses a parent on another screen, so xserver's screen index is a
// plain field fixed at creation.) It stays as the atomicfield.compare
// shape.
func reparentScreen(w, np *window) bool {
	return np.screenIdx != w.screenIdx // want `compares sync/atomic values plainly`
}

// reparentScreenOK is the live shape: compare the loaded values.
func reparentScreenOK(w, np *window) bool {
	return np.screenIdx.Load() != w.screenIdx.Load()
}

// sameParent compares two atomic pointers and two atomic arrays.
func sameParent(a, b *window) bool {
	return a.parent == b.parent || // want `compares sync/atomic values plainly`
		a.cells == b.cells // want `compares sync/atomic values plainly`
}

// sameParentOK compares what the pointers hold.
func sameParentOK(a, b *window) bool {
	return a.parent.Load() == b.parent.Load()
}

// waived keeps one comparison under an explicit reason.
func waived(a, b *window) bool {
	return a.screenIdx == b.screenIdx //swm:ok fixture: both windows are private to this goroutine
}
