package core

import (
	"slices"
	"strings"

	"repro/internal/obs"
	"repro/internal/xproto"
)

// traceCap is the WM event-trace ring size: big enough to hold a few
// pump bursts of context around an incident, small enough that the
// fixed buffer is negligible (256 entries × ~64 bytes).
const traceCap = 256

// Fixed array sizes for the enum-indexed counters. Event types run
// 2 (KeyPress) .. ShapeNotify; error codes 1 (BadRequest) .. BadAccess.
const (
	numEventSlots = int(xproto.ShapeNotify) + 1
	numErrorSlots = int(xproto.BadAccess) + 1
)

// wmMetrics is the WM's build-once instrument set: every counter and
// histogram the hot paths touch, resolved to struct fields or
// fixed-size arrays at construction so recording is always a direct
// atomic op — no registry lookups, no map writes, no locks. This is
// what replaced the PR 1 statsMu/map counters: the connection error
// handler runs while the server lock is held, and these counters are
// safe there because they are plain atomics.
type wmMetrics struct {
	registry *obs.Registry
	trace    *obs.Trace

	// events is indexed by xproto.EventType; nil below KeyPress.
	events [numEventSlots]*obs.Counter
	// errsByCode is indexed by xproto.ErrorCode; nil at unassigned
	// codes. otherErrs catches out-of-range codes.
	errsByCode [numErrorSlots]*obs.Counter
	otherErrs  *obs.Counter
	// errsByOp counts X errors per failing request major ("per-op
	// X error counts"), indexed by xproto.Major; nil at MajorNone.
	// otherOpErrs catches errors that name no request.
	errsByOp    [xproto.NumMajors]*obs.Counter
	otherOpErrs *obs.Counter

	// Request's counters: every request, requests by major (indexed
	// like errsByOp), and majors with no counter.
	requests, otherRequests *obs.Counter
	requestsByMajor         [xproto.NumMajors]*obs.Counter

	managed    *obs.Counter
	unmanaged  *obs.Counter
	deathRaces *obs.Counter
	pans       *obs.Counter

	// Decoration prototype cache traffic (see proto.go).
	protoHits      *obs.Counter
	protoMisses    *obs.Counter
	protoEvictions *obs.Counter

	pumpCycles   *obs.Counter
	pumpNs       *obs.Histogram
	pannerDamage *obs.Histogram

	// The session hint table's counters: Manage counts Match hits and
	// misses, loadHintTable the malformed records it drops.
	hintHits, hintMisses, badHints *obs.Counter

	// LockWait's instruments: contended writer-lock acquisitions and
	// how long each waited.
	lockContention *obs.Counter
	lockWaitNs     *obs.Histogram
}

// counterField picks the wmMetrics field one registered counter lands
// in.
type counterField func(*wmMetrics) **obs.Counter

// wmCounters is every counter a WM registers, sorted by name, and the
// field each one lands in. The names are the same in every WM, so they
// are built once per process; newWMMetrics registers all of them in one
// Registry.Counters call and assigns fields[i] the i-th result.
var wmCounters = func() (t struct {
	names  []string
	fields []counterField
}) {
	type entry struct {
		name  string
		field counterField
	}
	es := []entry{
		{"xerr.code.other", func(m *wmMetrics) **obs.Counter { return &m.otherErrs }},
		{"xerr.op.other", func(m *wmMetrics) **obs.Counter { return &m.otherOpErrs }},
		{"xreq.total", func(m *wmMetrics) **obs.Counter { return &m.requests }},
		{"xreq.other", func(m *wmMetrics) **obs.Counter { return &m.otherRequests }},
		{"wm.managed", func(m *wmMetrics) **obs.Counter { return &m.managed }},
		{"wm.unmanaged", func(m *wmMetrics) **obs.Counter { return &m.unmanaged }},
		{"wm.death_races", func(m *wmMetrics) **obs.Counter { return &m.deathRaces }},
		{"wm.pans", func(m *wmMetrics) **obs.Counter { return &m.pans }},
		{"pump.cycles", func(m *wmMetrics) **obs.Counter { return &m.pumpCycles }},
		{"deco.proto_hits", func(m *wmMetrics) **obs.Counter { return &m.protoHits }},
		{"deco.proto_misses", func(m *wmMetrics) **obs.Counter { return &m.protoMisses }},
		{"deco.proto_evictions", func(m *wmMetrics) **obs.Counter { return &m.protoEvictions }},
		{"session.hint_hits", func(m *wmMetrics) **obs.Counter { return &m.hintHits }},
		{"session.hint_misses", func(m *wmMetrics) **obs.Counter { return &m.hintMisses }},
		{"session.bad_records", func(m *wmMetrics) **obs.Counter { return &m.badHints }},
		{"xserver.lock_contention", func(m *wmMetrics) **obs.Counter { return &m.lockContention }},
	}
	for ev := xproto.KeyPress; ev <= xproto.ShapeNotify; ev++ {
		es = append(es, entry{"event." + ev.String(), func(m *wmMetrics) **obs.Counter { return &m.events[ev] }})
	}
	for _, code := range []xproto.ErrorCode{
		xproto.BadRequest, xproto.BadValue, xproto.BadWindow, xproto.BadAtom,
		xproto.BadMatch, xproto.BadDrawable, xproto.BadAccess,
	} {
		es = append(es, entry{"xerr.code." + code.String(), func(m *wmMetrics) **obs.Counter { return &m.errsByCode[code] }})
	}
	for major := xproto.MajorNone + 1; major < xproto.NumMajors; major++ {
		es = append(es,
			entry{"xreq." + major.String(), func(m *wmMetrics) **obs.Counter { return &m.requestsByMajor[major] }},
			entry{"xerr.op." + major.String(), func(m *wmMetrics) **obs.Counter { return &m.errsByOp[major] }})
	}
	slices.SortFunc(es, func(a, b entry) int { return strings.Compare(a.name, b.name) })
	for _, e := range es {
		t.names = append(t.names, e.name)
		t.fields = append(t.fields, e.field)
	}
	return t
}()

func newWMMetrics(reg *obs.Registry, trace *obs.Trace) *wmMetrics {
	m := &wmMetrics{
		registry:     reg,
		trace:        trace,
		pumpNs:       reg.Histogram("pump.ns", obs.LatencyBounds),
		pannerDamage: reg.Histogram("panner.damage", obs.SizeBounds),
		lockWaitNs:   reg.Histogram("xserver.lock_wait_ns", obs.LatencyBounds),
	}
	for i, c := range reg.Counters(wmCounters.names) {
		*wmCounters.fields[i](m) = c
	}
	return m
}

// Request is the WM connection's xserver.Instrument: it counts one X
// request in total and by major, and records it in the trace. It fires
// from the request gate, concurrently with the connection error
// handler, so it is restricted to atomic adds, reads of the counter
// array (never written after newWMMetrics) and the trace's leaf mutex.
func (m *wmMetrics) Request(major xproto.Major, target xproto.XID) {
	m.requests.Inc()
	if major < xproto.NumMajors && m.requestsByMajor[major] != nil {
		m.requestsByMajor[major].Inc()
	} else {
		m.otherRequests.Inc()
	}
	m.trace.Record(obs.KindRequest, major.String(), uint32(target), 0, 0)
}

// LockWait is the server's xserver.LockObserver: it counts one
// contended writer-lock acquisition and observes how long it waited.
// It fires from the lock's slow path on any connection's goroutine, so
// it is restricted to atomic ops.
func (m *wmMetrics) LockWait(ns int64) {
	m.lockContention.Inc()
	m.lockWaitNs.Observe(ns)
}

// noteXError is the connection error handler: it runs with the server
// lock held, so it is restricted to atomic adds on prebuilt counters.
func (m *wmMetrics) noteXError(xe *xproto.XError) {
	if int(xe.Code) < numErrorSlots && m.errsByCode[xe.Code] != nil {
		m.errsByCode[xe.Code].Inc()
	} else {
		m.otherErrs.Inc()
	}
	if xe.Major < xproto.NumMajors && m.errsByOp[xe.Major] != nil {
		m.errsByOp[xe.Major].Inc()
	} else {
		m.otherOpErrs.Inc()
	}
}

func (wm *WM) countEvent(t xproto.EventType) {
	if int(t) < numEventSlots && wm.metrics.events[t] != nil {
		wm.metrics.events[t].Inc()
	}
	wm.metrics.trace.Record(obs.KindEvent, "dispatch", 0, int64(t), 0)
}

func (wm *WM) noteManaged(win xproto.XID) {
	wm.metrics.managed.Inc()
	wm.metrics.trace.Record(obs.KindManage, "manage", uint32(win), 0, 0)
}

func (wm *WM) noteUnmanaged(win xproto.XID) {
	wm.metrics.unmanaged.Inc()
	wm.metrics.trace.Record(obs.KindUnmanage, "unmanage", uint32(win), 0, 0)
}

func (wm *WM) noteDeathRace() {
	wm.metrics.deathRaces.Inc()
}

func (wm *WM) notePan(desktop xproto.XID, x, y int) {
	wm.metrics.pans.Inc()
	wm.metrics.trace.Record(obs.KindPan, "pan", uint32(desktop), int64(x), int64(y))
}

// Metrics returns the WM's metrics registry; Snapshot() it for an
// atomically readable view (swmcmd -query stats serves this).
func (wm *WM) Metrics() *obs.Registry { return wm.metrics.registry }

// Trace returns the WM's event trace. Disabled by default; Enable it
// to start recording (the disabled hot path is one atomic load).
func (wm *WM) Trace() *obs.Trace { return wm.metrics.trace }

// Degraded returns the number of X operations that failed but were
// survived (the shared internal/degrade ledger).
func (wm *WM) Degraded() int { return wm.deg.Degraded() }

// LastError returns the most recent survived failure, or nil.
func (wm *WM) LastError() error { return wm.deg.LastError() }
