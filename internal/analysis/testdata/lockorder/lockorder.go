// Package lockorder is the golden fixture for the lockorder analyzer:
// re-entrant acquisition of Server.mu — directly, through the writeLock
// doorway, transitively, or from a *Locked helper — is a finding; the
// lock-once-then-*Locked shape and release-before-call are clean.
package lockorder

import "sync"

// Server mirrors the xserver locking shape: one mu guarding the state,
// public methods that take it, *Locked helpers that must not.
type Server struct {
	mu    sync.RWMutex
	items map[int]int
	in    Instrument
}

// Instrument mirrors the xserver instrument hook (internal/obs): a
// callback the server invokes while holding mu. Implementations touch
// only their own leaf state, so the analyzer must treat the dynamic
// call as clean rather than assuming it can re-enter the lock.
type Instrument interface {
	Note(k int)
}

// Get takes the read lock; calling it with mu held deadlocks.
func (s *Server) Get(k int) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.items[k]
}

// Sum re-enters through Get while still holding the lock.
func (s *Server) Sum(k int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Get(k) + 1 // want "Sum calls Get while holding the lock"
}

// helper does not lock itself but calls Get, so it may acquire.
func (s *Server) helper(k int) int { return s.Get(k) }

// Walk re-enters transitively through helper.
func (s *Server) Walk(k int) int {
	s.mu.Lock()
	v := s.helper(k) // want "Walk calls helper while holding the lock"
	s.mu.Unlock()
	return v
}

// putLocked violates its own naming contract by acquiring.
func (s *Server) putLocked(k, v int) {
	s.mu.Lock() // want "putLocked .* acquires the lock itself"
	s.items[k] = v
	s.mu.Unlock()
}

// sizeLocked calls a locking method from a lock-held context.
func (s *Server) sizeLocked() int {
	return s.Get(0) // want "sizeLocked .* calls Get, which acquires the lock"
}

// Observe is the instrument-point shape: a callback fired with the
// lock held is clean, since dispatch does not acquire (the request
// gate in internal/xserver fires its instrument before any lock).
func (s *Server) Observe(k int) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.in != nil {
		s.in.Note(k)
	}
	return s.items[k]
}

// noteLocked shows the same hook from a *Locked helper: dispatching to
// the instrument does not acquire, so the helper keeps its contract.
func (s *Server) noteLocked(k int) {
	if s.in != nil {
		s.in.Note(k)
	}
	s.items[k]++
}

// Put is the clean discipline: lock once, work through *Locked helpers.
func (s *Server) Put(k, v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.storeLocked(k, v)
}

func (s *Server) storeLocked(k, v int) { s.items[k] = v }

// Reload releases before calling a locking method: clean.
func (s *Server) Reload(k int) int {
	s.mu.Lock()
	s.items = map[int]int{}
	s.mu.Unlock()
	return s.Get(k)
}

// Recheck escapes the discipline deliberately, under a waiver.
func (s *Server) Recheck(k int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peek(k) //swm:ok fixture: peek switches to its own lock-free path when mu is held
}

func (s *Server) peek(k int) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.items[k]
}

// Serve mirrors the transport dispatch seam (swmhttp → fleet →
// handler): copy what the lock guards, release, then dispatch — the
// handler is free to re-enter locking methods.
func (s *Server) Serve(k int) int {
	s.mu.Lock()
	v := s.items[k]
	s.mu.Unlock()
	return v + s.Get(k)
}

// ServeHeld dispatches the handler with the lock still held — the
// transport bug the seam exists to prevent: a handler that re-enters
// Get deadlocks every request behind it.
func (s *Server) ServeHeld(k int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dispatch(k) // want "ServeHeld calls dispatch while holding the lock"
}

// dispatch stands in for a protocol handler: it may acquire through Get.
func (s *Server) dispatch(k int) int { return s.Get(k) }

// Refresh spawns a worker while holding the lock — the adopt-sweep
// shape. The goroutine does not inherit the hold, so its locking calls
// are clean, and they do not make Refresh itself "acquiring" from its
// callers' point of view.
func (s *Server) Refresh(k int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.items[k] = 0
	go func() {
		s.Put(k, s.Get(k)+1)
	}()
	go s.Get(k)
}

// RefreshAll shows the spawner stays non-acquiring: calling it with the
// lock held is clean because only its goroutines lock.
func (s *Server) RefreshAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := range s.items {
		s.refreshOne(k)
	}
}

func (s *Server) refreshOne(k int) {
	go func() {
		s.Put(k, 0)
	}()
}

// Prefetch's goroutine is its own context: it starts unheld, may take
// the lock itself, and then the usual re-entrancy rules apply inside.
func (s *Server) Prefetch(k int) {
	go func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.storeLocked(k, 1) // clean: this goroutine holds the lock
		_ = s.Get(k)        // want `Prefetch.func1 calls Get while holding the lock`
	}()
}

// Sweep calls a *Locked helper from a goroutine that never locked —
// the spawner's hold does not carry over.
func (s *Server) Sweep(k int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.storeLocked(k, 2) // want `Sweep.func1 runs on a spawned goroutine, which does not inherit the spawner's lock, but calls storeLocked`
	}()
}

// Kick shows the direct-call spawn form of the same bug.
func (s *Server) Kick(k int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go s.storeLocked(k, 3) // want `Kick.func1 runs on a spawned goroutine, which does not inherit the spawner's lock, but calls storeLocked`
}

// writeLock mirrors the xserver doorway: the one place mu is taken
// exclusively, with a contention hook on the slow path. A call to it is
// a server-lock acquire; callers release with mu.Unlock.
func (s *Server) writeLock() {
	if s.mu.TryLock() {
		return
	}
	s.mu.Lock()
	if s.in != nil {
		s.in.Note(-1)
	}
}

// Set is the sanctioned doorway shape. Clean.
func (s *Server) Set(k, v int) {
	s.writeLock()
	defer s.mu.Unlock()
	s.storeLocked(k, v)
}

// Bump re-enters through Get after the doorway.
func (s *Server) Bump(k int) {
	s.writeLock()
	defer s.mu.Unlock()
	s.items[k] = s.Get(k) + 1 // want "Bump calls Get while holding the lock"
}

// Swap re-enters transitively: Set acquires through the doorway.
func (s *Server) Swap(k int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.Set(k, 0) // want "Swap calls Set while holding the lock"
}

// resetLocked breaks its naming contract through the doorway.
func (s *Server) resetLocked() {
	s.writeLock() // want "resetLocked .* acquires the lock itself"
	s.items = nil
	s.mu.Unlock()
}

// intern mirrors xserver's internAtom: a lock-free hit, the doorway on
// a miss. (xserver's miss path is inline in internAtom; internLocked
// stays here as the helper the InternAtoms shape below should call.)
func (s *Server) intern(k int) int {
	if v, ok := s.items[k]; ok {
		return v
	}
	s.writeLock()
	defer s.mu.Unlock()
	return s.internLocked(k)
}

func (s *Server) internLocked(k int) int {
	s.items[k] = k
	return k
}

// InternAtoms mirrors the bulk intern xserver used to have (deleted
// with the one caller that fetched manage properties in bulk), with its
// miss path calling intern instead of internLocked: the first unknown
// name self-deadlocks. It stays as the lockorder.reentrant shape.
func (s *Server) InternAtoms(ks []int) {
	s.writeLock()
	defer s.mu.Unlock()
	for _, k := range ks {
		s.items[k] = s.intern(k) // want "InternAtoms calls intern while holding the lock"
	}
}
