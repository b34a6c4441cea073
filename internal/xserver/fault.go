package xserver

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/xproto"
)

// Fault injection: a per-connection policy that makes request methods
// fail with a chosen protocol error on a deterministic schedule. This
// reproduces the asynchronous-death race — a client destroying its
// window between event delivery and the WM's next request — without
// needing a misbehaving client, so graceful-degradation paths can be
// soaked under `go test -race` with a fixed seed.

// FaultPolicy configures fault injection on a connection. EveryN and
// Rate select the schedule: EveryN > 0 fails every Nth eligible
// request; otherwise Rate (0..1) fails each eligible request with that
// probability, drawn from a rand.Rand seeded with Seed (so the failure
// sequence is a pure function of the seed and the request sequence).
type FaultPolicy struct {
	Seed   int64
	EveryN int
	Rate   float64

	// Code is the protocol error to inject (default BadWindow).
	Code xproto.ErrorCode
	// Times caps the number of injected faults; 0 means unlimited.
	Times int
	// Ops restricts injection to the listed request majors
	// (e.g. xproto.MajorGetGeometry); empty means all requests are
	// eligible.
	Ops []xproto.Major
	// KillTarget additionally destroys the request's target window
	// (when it is a live, non-root window owned by another connection)
	// before failing — a deterministic death race: the window named by
	// the last event is gone by the time the request lands.
	KillTarget bool
}

type faultState struct {
	policy FaultPolicy
	rng    *rand.Rand
	seen   int // eligible requests observed
	fired  int // faults injected
}

// SetFaultPolicy installs (or, with nil, removes) a fault policy on
// this connection. Counters restart from zero each time a policy is
// installed. Requests keep their ordinary lock scopes: the schedule is
// stepped under the connection's errMu leaf lock, so a policy changes
// which requests fail, never how the others are serialized.
func (c *Conn) SetFaultPolicy(p *FaultPolicy) {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	var in Instrument
	if old := c.gates.Load(); old != nil {
		in = old.in
	}
	var f *faultState
	if p != nil {
		f = &faultState{policy: *p, rng: rand.New(rand.NewSource(p.Seed))}
		f.policy.Ops = slices.Clone(p.Ops)
	}
	c.storeGates(in, f)
}

// storeGates publishes the request-path hooks, or nil when neither is
// installed so the gate stays one atomic load. Caller holds errMu.
func (c *Conn) storeGates(in Instrument, f *faultState) {
	if in == nil && f == nil {
		c.gates.Store(nil)
		return
	}
	c.gates.Store(&connGates{in: in, faults: f})
}

// FaultCount reports how many faults have been injected since the
// current policy was installed.
func (c *Conn) FaultCount() int {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	g := c.gates.Load()
	if g == nil || g.faults == nil {
		return 0
	}
	return g.faults.fired
}

// SetErrorHandler installs an observer invoked once for every X
// protocol error this connection's requests return — the analogue of
// Xlib's XSetErrorHandler, and the hook wm.Stats() error accounting
// hangs off. The handler runs from whatever context the failing
// request executed in (possibly with the server lock held) and must
// not issue requests on any connection.
func (c *Conn) SetErrorHandler(h func(*xproto.XError)) {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	c.errHandler = h
}

// gate is the single entry every request method passes, first, before
// it takes any lock (so faults fire for valid requests too). It fires
// the connection's instrument for a request of major, then steps
// the fault schedule, and returns the injected error or nil to proceed.
// With no hooks installed it costs one atomic load.
//
// The schedule state is guarded by errMu, the connection's leaf lock,
// so injection works from every locking regime and a seeded schedule
// sees the connection's own request sequence. A KillTarget fault
// destroys its target as an ordinary exclusive-lock destroy after errMu
// is released, which is safe because no request holds a lock here.
func (c *Conn) gate(major xproto.Major, target xproto.XID) error {
	g := c.gates.Load()
	if g == nil {
		return nil
	}
	if g.in != nil {
		g.in.Request(major, target)
	}
	f := g.faults
	if f == nil {
		return nil
	}
	c.errMu.Lock()
	fired := f.step(major)
	c.errMu.Unlock()
	if fired == 0 {
		return nil
	}
	code := f.policy.Code
	if code == 0 {
		code = xproto.BadWindow
	}
	if f.policy.KillTarget && target != xproto.None {
		s := c.server
		s.writeLock()
		if w := s.lookup(target); w != nil && !w.isRoot && w.owner != c {
			s.destroyLocked(w)
		}
		s.mu.Unlock()
	}
	return c.note(&xproto.XError{
		Code: code, Major: major, Resource: target,
		Detail: fmt.Sprintf("injected fault #%d on 0x%x", fired, uint32(target)),
	})
}

// step advances the schedule by one request of major and returns the
// fault's ordinal when it fires, 0 otherwise. Caller holds errMu.
func (f *faultState) step(major xproto.Major) int {
	if f.policy.Times > 0 && f.fired >= f.policy.Times {
		return 0
	}
	if len(f.policy.Ops) > 0 && !slices.Contains(f.policy.Ops, major) {
		return 0
	}
	f.seen++
	fire := false
	switch {
	case f.policy.EveryN > 0:
		fire = f.seen%f.policy.EveryN == 0
	case f.policy.Rate > 0:
		fire = f.rng.Float64() < f.policy.Rate
	}
	if !fire {
		return 0
	}
	f.fired++
	return f.fired
}

// note reports err to the connection's error handler (exactly once per
// error instance, guarded by lastNoted so an error returned through
// several layers of the same request is not double-counted) and
// returns it unchanged. It is guarded by the errMu leaf lock so
// requests in any locking regime may call it.
func (c *Conn) note(err error) error {
	if err == nil {
		return err
	}
	c.errMu.Lock()
	defer c.errMu.Unlock()
	if c.errHandler == nil || err == c.lastNoted {
		return err
	}
	var xe *xproto.XError
	if errors.As(err, &xe) {
		c.lastNoted = err
		c.errHandler(xe)
	}
	return err
}
