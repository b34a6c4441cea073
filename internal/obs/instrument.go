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
// so it is restricted to atomic adds, reads of a counter array that is
// never written after construction, and the trace's leaf mutex.
type ConnInstrument struct {
	requests *Counter
	byMajor  *[xproto.NumMajors]*Counter // shared with the caller, read-only
	other    *Counter
	trace    *Trace // may be nil
}

// NewConnInstrument builds the connection instrument over counters the
// caller has registered: total counts every request, byMajor[m] counts
// request major m, and other counts majors whose slot is nil. byMajor
// must not be written after this call. trace may be nil to skip trace
// records.
func NewConnInstrument(trace *Trace, byMajor *[xproto.NumMajors]*Counter, total, other *Counter) *ConnInstrument {
	return &ConnInstrument{requests: total, byMajor: byMajor, other: other, trace: trace}
}

// Request records one X request.
func (in *ConnInstrument) Request(major xproto.Major, target xproto.XID) {
	in.requests.Inc()
	if major < xproto.NumMajors && in.byMajor[major] != nil {
		in.byMajor[major].Inc()
	} else {
		in.other.Inc()
	}
	if in.trace != nil {
		in.trace.Record(KindRequest, major.String(), uint32(target), 0, 0)
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

// NewLockInstrument builds the lock-contention instrument over
// instruments the caller has registered: contended counts contended
// acquisitions and waitNs observes how long each waited.
func NewLockInstrument(contended *Counter, waitNs *Histogram) *LockInstrument {
	return &LockInstrument{contended: contended, waitNs: waitNs}
}

// LockWait records one contended lock acquisition that waited ns
// nanoseconds for the holder to release.
func (in *LockInstrument) LockWait(ns int64) {
	in.contended.Inc()
	in.waitNs.Observe(ns)
}

// Contended returns the number of contended lock acquisitions so far.
func (in *LockInstrument) Contended() int64 { return in.contended.Value() }
