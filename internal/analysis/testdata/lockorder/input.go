// input.go pins the lower half of the lock hierarchy end to end:
// Server.mu > inputMu > Conn.qMu/errMu, with propMu a leaf. Descending
// the chain is clean; acquiring upward from a leaf, holding two leaf
// locks, or re-entering a leaf through a call are findings.

package lockorder

import "sync"

// InputServer models the input-dispatch tier: the server lock above,
// the inputMu serializing device events below it.
type InputServer struct {
	mu      sync.RWMutex
	inputMu sync.Mutex
}

// FixConn models the per-connection leaf tier: qMu guards the event
// queue, errMu the error queue, and the two are unordered peers.
type FixConn struct {
	qMu   sync.Mutex
	errMu sync.Mutex
	q     []int
	errs  []int
}

// enqueue is the sanctioned leaf shape: qMu guards only the append.
func (c *FixConn) enqueue(v int) {
	c.qMu.Lock()
	c.q = append(c.q, v)
	c.qMu.Unlock()
}

// pushErr is the other leaf, same shape.
func (c *FixConn) pushErr(v int) {
	c.errMu.Lock()
	c.errs = append(c.errs, v)
	c.errMu.Unlock()
}

// Motion descends legally: inputMu above the connection leaf.
func (s *InputServer) Motion(c *FixConn, v int) {
	s.inputMu.Lock()
	defer s.inputMu.Unlock()
	c.enqueue(v)
}

// Dispatch descends the whole chain legally: server read lock, then
// inputMu, then the leaf through enqueue.
func (s *InputServer) Dispatch(c *FixConn, v int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.inputMu.Lock()
	defer s.inputMu.Unlock()
	c.enqueue(v)
}

// DrainNotify inverts the input edge: the leaf is held when inputMu is
// taken.
func (c *FixConn) DrainNotify(s *InputServer) {
	c.qMu.Lock()
	defer c.qMu.Unlock()
	s.inputMu.Lock() // want `acquires inputMu while holding qMu`
	s.inputMu.Unlock()
}

// Requeue re-enters the leaf through a call while holding it.
func (c *FixConn) Requeue(v int) {
	c.qMu.Lock()
	defer c.qMu.Unlock()
	c.enqueue(v) // want `re-acquires it \(sync.Mutex is not re-entrant\)`
}

// CrossLeaf holds both unordered leaf locks at once.
func (c *FixConn) CrossLeaf() {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	c.qMu.Lock() // want `the connection leaf locks are unordered peers`
	c.q = nil
	c.qMu.Unlock()
}

// PumpInput ascends from the leaf all the way to the server lock.
func (c *FixConn) PumpInput(s *InputServer) {
	c.qMu.Lock()
	s.mu.Lock() // want `acquires the server lock while holding qMu`
	s.mu.Unlock()
	c.qMu.Unlock()
}

// PropCell models the per-property value leaf: propMu guards the value
// and is never held across another acquire.
type PropCell struct {
	propMu sync.Mutex
	data   []byte
}

// SetThenNotify is the sanctioned shape: write the value under propMu,
// release, then deliver the notify through the connection leaf.
func (p *PropCell) SetThenNotify(c *FixConn, v byte) {
	p.propMu.Lock()
	p.data = append(p.data[:0], v)
	p.propMu.Unlock()
	c.enqueue(int(v))
}

// DeleteProperty mirrors xserver's DeleteProperty with its unlock
// deferred: the notify is then delivered with propMu still held, so the
// queue leaf is acquired under the property leaf. It builds, vets and
// passes every test, because nothing yet takes propMu under qMu.
func (p *PropCell) DeleteProperty(c *FixConn) {
	p.propMu.Lock()
	defer p.propMu.Unlock()
	p.data = nil
	c.enqueue(0) // want `calls enqueue, which acquires qMu, while holding propMu`
}
