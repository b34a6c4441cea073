package obs

import (
	"repro/internal/xproto"
)

// ConnInstrument observes X connection traffic. It structurally
// satisfies xserver.Instrument without this package importing xserver:
// both sides speak in terms of the leaf xproto package only.
//
// Request fires inside the server's request gate — possibly under the
// server's read lock, possibly concurrently from several connections —
// so it is restricted to atomic adds, reads of a map that is never
// written after construction, and the trace's leaf mutex.
type ConnInstrument struct {
	requests *Counter
	byMajor  map[string]*Counter // built once in NewConnInstrument, read-only after
	other    *Counter
	trace    *Trace // may be nil
}

// NewConnInstrument registers the connection instruments in reg and
// prebuilds one counter per request major in majors (callers pass
// xserver.RequestMajors). Requests with an unlisted major fall into
// xreq.other. trace may be nil to skip trace records.
func NewConnInstrument(reg *Registry, trace *Trace, majors []string) *ConnInstrument {
	in := &ConnInstrument{
		requests: reg.Counter("xreq.total"),
		byMajor:  make(map[string]*Counter, len(majors)),
		other:    reg.Counter("xreq.other"),
		trace:    trace,
	}
	for _, m := range majors {
		in.byMajor[m] = reg.Counter("xreq." + m)
	}
	return in
}

// Request records one X request. major must be a static string.
func (in *ConnInstrument) Request(major string, target xproto.XID) {
	in.requests.Inc()
	if c, ok := in.byMajor[major]; ok {
		c.Inc()
	} else {
		in.other.Inc()
	}
	if in.trace != nil {
		in.trace.Record(KindRequest, major, uint32(target), 0, 0)
	}
}

// LockInstrument observes writer-lock contention in the X server. It
// structurally satisfies xserver.LockObserver without this package
// importing xserver. LockWait fires from the lock-acquire slow path —
// concurrently from any number of connections — so it is restricted
// to atomic ops on prebuilt instruments.
type LockInstrument struct {
	contended *Counter
	waitNs    *Histogram
}

// NewLockInstrument registers the lock-contention instruments in reg.
func NewLockInstrument(reg *Registry) *LockInstrument {
	return &LockInstrument{
		contended: reg.Counter("xserver.lock_contention"),
		waitNs:    reg.Histogram("xserver.lock_wait_ns", LatencyBounds),
	}
}

// LockWait records one contended lock acquisition that waited ns
// nanoseconds for the holder to release.
func (in *LockInstrument) LockWait(ns int64) {
	in.contended.Inc()
	in.waitNs.Observe(ns)
}

// Contended returns the number of contended lock acquisitions so far.
func (in *LockInstrument) Contended() int64 { return in.contended.Value() }

// SessionInstrument observes session-manager activity. It structurally
// satisfies session.Instrument.
type SessionInstrument struct {
	hits   *Counter
	misses *Counter
	bad    *Counter
}

// NewSessionInstrument registers the session instruments in reg.
func NewSessionInstrument(reg *Registry) *SessionInstrument {
	return &SessionInstrument{
		hits:   reg.Counter("session.hint_hits"),
		misses: reg.Counter("session.hint_misses"),
		bad:    reg.Counter("session.bad_records"),
	}
}

// HintMatch records one hint-table lookup.
func (in *SessionInstrument) HintMatch(hit bool) {
	if hit {
		in.hits.Inc()
	} else {
		in.misses.Inc()
	}
}

// BadRecords records n malformed hint records dropped while parsing.
func (in *SessionInstrument) BadRecords(n int) {
	in.bad.Add(int64(n))
}
