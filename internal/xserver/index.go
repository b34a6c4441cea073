package xserver

import (
	"sync/atomic"
	"time"

	"repro/internal/xproto"
)

// Window index and writer lock. The server's window index is one slot
// table addressed by xid - baseXID, so a lookup is two atomic loads and
// a bounds check — no map hashing, no lock. XIDs are allocated
// sequentially from baseXID, which keeps the table dense.
//
// Server.mu, a plain mutex, serializes every structural writer —
// window creation, map/unmap, restack, event-mask changes, destroy,
// reparent, connection lifecycle, grabs, focus and input injection —
// the way a real X server's single dispatch loop does. Readers never take it: all
// reachable per-window state is atomic or copy-on-write, or (property
// values) behind a per-property leaf lock, so reads and property and
// geometry writes proceed while a writer holds it.
// Writers take it through writeLock, which reports contention to the
// LockObserver; the lockorder analyzer treats a writeLock call as a
// server-lock acquire.
//
// Lock hierarchy (outermost first):
//
//	Server.mu  >  Server.inputMu  >  Conn.qMu / Conn.errMu
//
// with propCell.propMu a leaf that is never held across another
// acquire. Input injection holds Server.mu and inputMu; a lock-free
// configure's pointer recheck takes inputMu alone.

// baseXID is the first XID allocID hands out. IDs below it (None,
// PointerRoot) are never windows.
const baseXID = 0x200000

// winTab is the index's slot table. The slice itself is immutable once
// published (growth copies into a fresh table); the slots are
// individually atomic so inserts and removals need not clone.
type winTab []atomic.Pointer[window]

// lookup returns the live window for id, or nil if the id is unknown
// or destroyed. Lock-free: safe from any context.
func (s *Server) lookup(id xproto.XID) *window {
	if id < baseXID {
		return nil
	}
	tab := *s.wins.Load()
	i := uint32(id - baseXID)
	if i >= uint32(len(tab)) {
		return nil
	}
	w := tab[i].Load()
	if w == nil || w.destroyed.Load() {
		return nil
	}
	return w
}

// indexPut publishes w in the slot table. Caller must hold Server.mu
// exclusively.
func (s *Server) indexPut(w *window) {
	i := uint32(w.id - baseXID)
	var tab winTab
	if tp := s.wins.Load(); tp != nil {
		tab = *tp
	}
	if i >= uint32(len(tab)) {
		// Double, with a floor of 64 slots (512 bytes): one table covers
		// a small session's windows without a growth step.
		n := uint32(len(tab)) * 2
		if n < i+64 {
			n = i + 64
		}
		nt := make(winTab, n)
		for j := range tab {
			nt[j].Store(tab[j].Load())
		}
		nt[i].Store(w)
		s.wins.Store(&nt)
	} else {
		tab[i].Store(w)
	}
	s.winCount.Add(1)
}

// indexDel clears w's slot. Caller must hold Server.mu exclusively.
func (s *Server) indexDel(w *window) {
	tab := *s.wins.Load()
	if i := uint32(w.id - baseXID); i < uint32(len(tab)) {
		tab[i].Store(nil)
		s.winCount.Add(-1)
	}
}

// forEachWindow calls fn for every live window. Caller must hold
// Server.mu exclusively.
func (s *Server) forEachWindow(fn func(*window)) {
	tab := *s.wins.Load()
	for i := range tab {
		if w := tab[i].Load(); w != nil && !w.destroyed.Load() {
			fn(w)
		}
	}
}

// LockObserver receives writer-lock contention telemetry from
// writeLock's slow path. The WM's metrics set (internal/core) is the
// implementation SetLockObserver installs; the hook must be safe for
// concurrent use and must not call back into the server.
type LockObserver interface {
	// LockWait reports one contended Server.mu acquisition and how long
	// the acquirer waited, in nanoseconds.
	LockWait(ns int64)
}

// SetLockObserver installs (or, with nil, removes) the server's lock
// contention observer.
func (s *Server) SetLockObserver(lo LockObserver) {
	if lo == nil {
		s.lockObs.Store(nil)
		return
	}
	s.lockObs.Store(&lo)
}

// writeLock takes Server.mu, recording contention on the slow path. It
// is the only place Server.mu is locked; callers release with
// s.mu.Unlock.
func (s *Server) writeLock() {
	if s.mu.TryLock() {
		return
	}
	t0 := time.Now()
	s.mu.Lock()
	if lo := s.lockObs.Load(); lo != nil {
		(*lo).LockWait(time.Since(t0).Nanoseconds())
	}
}
