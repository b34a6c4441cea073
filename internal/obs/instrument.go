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
	majors   map[string]int // major → index into byMajor; shared, read-only
	byMajor  []*Counter
	other    *Counter
	trace    *Trace // may be nil
}

// NewConnInstrument builds the connection instrument over counters the
// caller has registered: total counts every request, byMajor[majors[m]]
// counts request major m, and other counts majors that majors does not
// list. majors must not be written after this call, so one map can
// serve every instrument in the process. trace may be nil to skip trace
// records.
func NewConnInstrument(trace *Trace, majors map[string]int, byMajor []*Counter, total, other *Counter) *ConnInstrument {
	return &ConnInstrument{requests: total, majors: majors, byMajor: byMajor, other: other, trace: trace}
}

// Request records one X request. major must be a static string.
func (in *ConnInstrument) Request(major string, target xproto.XID) {
	in.requests.Inc()
	if i, ok := in.majors[major]; ok {
		in.byMajor[i].Inc()
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

// SessionInstrument observes session-manager activity. It structurally
// satisfies session.Instrument.
type SessionInstrument struct {
	hits   *Counter
	misses *Counter
	bad    *Counter
}

// NewSessionInstrument builds the session instrument over counters the
// caller has registered: hint-table hits and misses, and malformed
// records dropped.
func NewSessionInstrument(hits, misses, bad *Counter) *SessionInstrument {
	return &SessionInstrument{hits: hits, misses: misses, bad: bad}
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
