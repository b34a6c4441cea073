package xserver

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/xproto"
)

// Striped window table. The server's window index is sharded into
// numStripes stripes by XID; each stripe holds a slot table addressed
// by (xid - baseXID) / numStripes, so a lookup is two atomic loads and
// a bounds check — no map hashing, no lock. XIDs are allocated
// sequentially from baseXID, which both spreads consecutive windows
// across stripes (adjacent ids land on adjacent stripes) and keeps the
// per-stripe tables dense.
//
// The per-stripe RWMutex serializes *structural* writers within a
// stripe: window creation (slot insert + parent attach), map/unmap,
// restack, and event-mask changes take the stripes of every touched
// window. Readers never take it — all reachable per-window state is
// atomic or copy-on-write, so the read side stays lock-free even while
// a stripe is held. Acquiring multiple stripes always goes through the
// lockStripes2 doorway, which orders acquisition by ascending stripe
// index; the lockorder analyzer flags any stripe-mutex manipulation
// outside the doorway functions in this file, so the ordering invariant
// is machine-checked rather than conventional.
//
// Lock hierarchy (outermost first):
//
//	Server.mu  >  stripes (ascending index)  >  Server.inputMu  >  Conn.qMu / Conn.errMu
//
// Holding Server.mu exclusively implies every stripe: stripe holders
// always hold Server.mu shared, so an exclusive holder has the table to
// itself. Destroy (including a KillTarget fault's), reparent and
// connection close rely on that escalation instead of acquiring
// stripes.

const (
	numStripes  = 64
	stripeMask  = numStripes - 1
	stripeShift = 6 // log2(numStripes)

	// baseXID is the first XID allocID hands out. IDs below it (None,
	// PointerRoot) are never windows.
	baseXID = 0x200000
)

// winTab is one stripe's slot table. The slice itself is immutable
// once published (growth copies into a fresh table); the slots are
// individually atomic so inserts and removals need not clone.
type winTab []atomic.Pointer[window]

type stripe struct {
	mu  sync.RWMutex
	tab atomic.Pointer[winTab]
	_   [32]byte // pad to a cache line so stripes don't false-share
}

func stripeIndex(id xproto.XID) uint32 {
	return uint32(id-baseXID) & stripeMask
}

// lookup returns the live window for id, or nil if the id is unknown
// or destroyed. Lock-free: safe from any context.
func (s *Server) lookup(id xproto.XID) *window {
	if id < baseXID {
		return nil
	}
	k := uint32(id - baseXID)
	tp := s.stripes[k&stripeMask].tab.Load()
	if tp == nil {
		return nil
	}
	tab := *tp
	i := k >> stripeShift
	if i >= uint32(len(tab)) {
		return nil
	}
	w := tab[i].Load()
	if w == nil || w.destroyed.Load() {
		return nil
	}
	return w
}

// indexPut publishes w in its stripe's slot table. Caller must hold
// w's stripe or Server.mu exclusively.
func (s *Server) indexPut(w *window) {
	k := uint32(w.id - baseXID)
	st := &s.stripes[k&stripeMask]
	i := k >> stripeShift
	tp := st.tab.Load()
	var tab winTab
	if tp != nil {
		tab = *tp
	}
	if i >= uint32(len(tab)) {
		n := uint32(len(tab)) * 2
		// Growth floor of 64 slots: a stripe's first growth covers a
		// busy server's whole share (64 stripes × 64 slots = 4096
		// windows) so the per-stripe growth chain is one step, not
		// four. 512 bytes per touched stripe.
		if n < i+64 {
			n = i + 64
		}
		nt := make(winTab, n)
		for j := range tab {
			nt[j].Store(tab[j].Load())
		}
		nt[i].Store(w)
		st.tab.Store(&nt)
	} else {
		tab[i].Store(w)
	}
	s.winCount.Add(1)
}

// indexDel clears w's slot. Caller must hold w's stripe or Server.mu
// exclusively.
func (s *Server) indexDel(w *window) {
	k := uint32(w.id - baseXID)
	tp := s.stripes[k&stripeMask].tab.Load()
	if tp == nil {
		return
	}
	tab := *tp
	i := k >> stripeShift
	if i < uint32(len(tab)) {
		tab[i].Store(nil)
		s.winCount.Add(-1)
	}
}

// forEachWindow calls fn for every live window. Caller must hold
// Server.mu (either mode); with the shared lock the iteration sees a
// weakly consistent snapshot.
func (s *Server) forEachWindow(fn func(*window)) {
	for si := range s.stripes {
		tp := s.stripes[si].tab.Load()
		if tp == nil {
			continue
		}
		tab := *tp
		for i := range tab {
			if w := tab[i].Load(); w != nil && !w.destroyed.Load() {
				fn(w)
			}
		}
	}
}

// LockObserver receives stripe-contention telemetry from the
// stripe-acquire slow path. obs wires a registry-backed implementation
// via SetLockObserver; the hook must be safe for concurrent use and
// must not call back into the server.
type LockObserver interface {
	// StripeWait reports one contended stripe acquisition and how long
	// the acquirer waited, in nanoseconds.
	StripeWait(ns int64)
}

// SetLockObserver installs (or, with nil, removes) the server's stripe
// contention observer.
func (s *Server) SetLockObserver(lo LockObserver) {
	if lo == nil {
		s.lockObs.Store(nil)
		return
	}
	s.lockObs.Store(&lo)
}

// acquireStripe takes one stripe's write lock, recording contention on
// the slow path. It is the only place a stripe mutex is locked.
func (s *Server) acquireStripe(st *stripe) {
	if st.mu.TryLock() {
		return
	}
	t0 := time.Now()
	st.mu.Lock()
	if lo := s.lockObs.Load(); lo != nil {
		(*lo).StripeWait(time.Since(t0).Nanoseconds())
	}
}

// lockStripe acquires the stripe owning id. Caller must hold Server.mu
// shared and must release with unlockStripe.
func (s *Server) lockStripe(id xproto.XID) *stripe {
	st := &s.stripes[stripeIndex(id)]
	s.acquireStripe(st)
	return st
}

func (s *Server) unlockStripe(st *stripe) {
	st.mu.Unlock()
}

// lockStripes2 acquires the stripes owning a and b in ascending stripe
// order — the locking invariant the lockorder analyzer enforces. The
// second return is nil when both ids share a stripe. Caller must hold
// Server.mu shared and must release with unlockStripes2.
func (s *Server) lockStripes2(a, b xproto.XID) (*stripe, *stripe) {
	ia, ib := stripeIndex(a), stripeIndex(b)
	if ia == ib {
		st := &s.stripes[ia]
		s.acquireStripe(st)
		return st, nil
	}
	if ia > ib {
		ia, ib = ib, ia
	}
	s1, s2 := &s.stripes[ia], &s.stripes[ib]
	s.acquireStripe(s1)
	s.acquireStripe(s2)
	return s1, s2
}

func (s *Server) unlockStripes2(s1, s2 *stripe) {
	if s2 != nil {
		s2.mu.Unlock()
	}
	s1.mu.Unlock()
}
