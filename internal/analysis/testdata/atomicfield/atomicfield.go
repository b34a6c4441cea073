// Package atomicfield is the golden fixture for the atomicfield
// analyzer: == and != between sync/atomic values are findings, since
// they compile and go vet does not report them; comparing Load results
// is clean.
package atomicfield

import "sync/atomic"

// window mirrors the xserver window's atomic fields.
type window struct {
	screenIdx atomic.Int32
	parent    atomic.Pointer[window]
	cells     [2]atomic.Uint32
}

// reparentScreen mirrors ReparentWindow's cross-screen test with the
// Loads dropped: it compiles and vets clean.
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
