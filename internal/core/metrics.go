package core

import (
	"repro/internal/obs"
	"repro/internal/xproto"

	"repro/internal/xserver"
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
	// X error counts"). Built once from xserver.RequestMajors and
	// read-only after, so the error handler's map read is lock-free.
	errsByOp    map[string]*obs.Counter
	otherOpErrs *obs.Counter

	managed    *obs.Counter
	unmanaged  *obs.Counter
	deathRaces *obs.Counter
	pans       *obs.Counter

	// Adoption fast-path instruments: decoration prototype cache
	// traffic (see proto.go) and the restart sweep's worker-pool
	// backlog (see adopt.go). The gauge is written from pool workers,
	// so it must stay a plain atomic like everything else here.
	protoHits      *obs.Counter
	protoMisses    *obs.Counter
	protoEvictions *obs.Counter
	adoptQueue     *obs.Gauge

	pumpCycles   *obs.Counter
	pumpNs       *obs.Histogram
	pannerDamage *obs.Histogram

	// lockInst feeds xserver's writer-lock slow path (installed via
	// Server.SetLockObserver in New): contended acquisitions and how
	// long they waited.
	lockInst *obs.LockInstrument
}

func newWMMetrics(reg *obs.Registry, trace *obs.Trace) *wmMetrics {
	m := &wmMetrics{
		registry:     reg,
		trace:        trace,
		otherErrs:    reg.Counter("xerr.code.other"),
		errsByOp:     make(map[string]*obs.Counter, len(xserver.RequestMajors)),
		otherOpErrs:  reg.Counter("xerr.op.other"),
		managed:      reg.Counter("wm.managed"),
		unmanaged:    reg.Counter("wm.unmanaged"),
		deathRaces:   reg.Counter("wm.death_races"),
		pans:         reg.Counter("wm.pans"),
		pumpCycles:   reg.Counter("pump.cycles"),
		pumpNs:       reg.Histogram("pump.ns", obs.LatencyBounds),
		pannerDamage: reg.Histogram("panner.damage", obs.SizeBounds),

		protoHits:      reg.Counter("deco.proto_hits"),
		protoMisses:    reg.Counter("deco.proto_misses"),
		protoEvictions: reg.Counter("deco.proto_evictions"),
		adoptQueue:     reg.Gauge("adopt.queue_depth"),

		lockInst: obs.NewLockInstrument(reg),
	}
	for t := xproto.KeyPress; t <= xproto.ShapeNotify; t++ {
		m.events[t] = reg.Counter("event." + t.String())
	}
	for _, code := range []xproto.ErrorCode{
		xproto.BadRequest, xproto.BadValue, xproto.BadWindow, xproto.BadAtom,
		xproto.BadMatch, xproto.BadDrawable, xproto.BadAccess,
	} {
		m.errsByCode[code] = reg.Counter("xerr.code." + code.String())
	}
	for _, major := range xserver.RequestMajors {
		m.errsByOp[major] = reg.Counter("xerr.op." + major)
	}
	return m
}

// noteXError is the connection error handler: it runs with the server
// lock held, so it is restricted to atomic adds and reads of maps that
// are never written after construction.
func (m *wmMetrics) noteXError(xe *xproto.XError) {
	if int(xe.Code) < numErrorSlots && m.errsByCode[xe.Code] != nil {
		m.errsByCode[xe.Code].Inc()
	} else {
		m.otherErrs.Inc()
	}
	if c, ok := m.errsByOp[xe.Major]; ok {
		c.Inc()
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
