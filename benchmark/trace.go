package main

import (
	"bytes"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/swmload"
	"repro/internal/swmproto"
)

// ringSize bounds how many in-flight requests the traced backend can
// pair with their handler spans; with at most a few connections only a
// handful are ever in flight.
const ringSize = 1 << 12

// serveRec is one ServeSession span keyed by the request id swmhttp
// assigned, so the handler wrapper can subtract it from the same
// request's handler span.
type serveRec struct {
	id uint64
	d  time.Duration
}

// tracedBackend is a swmhttp.Backend that times ServeSession on the
// embedded fleet and classifies each request: exec, a read that follows
// a write to its session (cold: the snapshot cache was invalidated), or
// any other read (warm).
type tracedBackend struct {
	*fleet.Manager

	mu   sync.Mutex
	cls  *rawClassifier
	ring [ringSize]serveRec
	warm []time.Duration
	cold []time.Duration
	exec []time.Duration
}

func newTracedBackend(m *fleet.Manager) *tracedBackend {
	return &tracedBackend{Manager: m, cls: newRawClassifier(m.Sessions())}
}

func (b *tracedBackend) ServeSession(id int, req swmproto.Request) swmproto.Response {
	write := req.Op == swmproto.OpExec
	b.mu.Lock()
	raw := b.cls.observe(id, write)
	b.mu.Unlock()
	start := time.Now()
	resp := b.Manager.ServeSession(id, req)
	d := time.Since(start)
	b.mu.Lock()
	switch {
	case write:
		b.exec = append(b.exec, d)
	case raw:
		b.cold = append(b.cold, d)
	default:
		b.warm = append(b.warm, d)
	}
	b.ring[req.ID%ringSize] = serveRec{id: req.ID, d: d}
	b.mu.Unlock()
	return resp
}

// markAllWritten records a write to every session (a fleet-wide pump).
func (b *tracedBackend) markAllWritten() {
	b.mu.Lock()
	b.cls.markAll()
	b.mu.Unlock()
}

// lookup returns the ServeSession span of request id, if it is still
// in the ring.
func (b *tracedBackend) lookup(id uint64) (time.Duration, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	rec := b.ring[id%ringSize]
	return rec.d, rec.id == id
}

// tracedHandler times the complete swmhttp handler (middleware, mux,
// ServeSession, envelope encode and write) for every request, and
// pairs it with the backend's ServeSession span through the request id
// the envelope carries.
type tracedHandler struct {
	next http.Handler
	b    *tracedBackend

	mu        sync.Mutex
	serve     []time.Duration
	execServe []time.Duration
	self      []time.Duration
	unmatched int
}

// idWriter keeps the first bytes of the response body, where the
// envelope's id field sits.
type idWriter struct {
	http.ResponseWriter
	head [48]byte
	n    int
}

func (w *idWriter) Write(p []byte) (int, error) {
	if w.n < len(w.head) {
		w.n += copy(w.head[w.n:], p)
	}
	return w.ResponseWriter.Write(p)
}

var idWriterPool = sync.Pool{New: func() any { return new(idWriter) }}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	iw := idWriterPool.Get().(*idWriter)
	iw.ResponseWriter, iw.n = w, 0
	start := time.Now()
	h.next.ServeHTTP(iw, r)
	d := time.Since(start)
	id, ok := envelopeID(iw.head[:iw.n])
	iw.ResponseWriter = nil
	idWriterPool.Put(iw)
	if !ok {
		return // discovery and health probes carry no envelope
	}
	inner, matched := h.b.lookup(id)
	h.mu.Lock()
	h.serve = append(h.serve, d)
	if r.Method == http.MethodPost {
		h.execServe = append(h.execServe, d)
	}
	if matched {
		h.self = append(h.self, selfTime(d, inner))
	} else {
		h.unmatched++
	}
	h.mu.Unlock()
}

// envelopeID parses the id of a response envelope from the start of its
// body ({"v":1,"id":N,...}). Other bodies, such as discovery listings,
// report false.
func envelopeID(head []byte) (uint64, bool) {
	rest, ok := bytes.CutPrefix(head, []byte(`{"v":`))
	if !ok {
		return 0, false
	}
	i := bytes.Index(rest, []byte(`,"id":`))
	if i < 0 {
		return 0, false
	}
	rest = rest[i+len(`,"id":`):]
	var id uint64
	j := 0
	for ; j < len(rest) && rest[j] >= '0' && rest[j] <= '9'; j++ {
		id = id*10 + uint64(rest[j]-'0')
	}
	return id, j > 0
}

// traceData is the sorted span sets of a traced run.
type traceData struct {
	serve, execServe, self []time.Duration
	warm, cold, exec, all  []time.Duration
	unmatched              int
	rawShare               float64
}

// snapshot sorts and returns everything the wrappers recorded. Call it
// only after the load has stopped.
func (e *httpEnv) snapshotTrace() traceData {
	b, h := e.tb, e.th
	b.mu.Lock()
	defer b.mu.Unlock()
	h.mu.Lock()
	defer h.mu.Unlock()
	all := append(append(append([]time.Duration(nil), b.warm...), b.cold...), b.exec...)
	return traceData{
		serve:     sortDurations(h.serve),
		execServe: sortDurations(h.execServe),
		self:      sortDurations(h.self),
		warm:      sortDurations(b.warm),
		cold:      sortDurations(b.cold),
		exec:      sortDurations(b.exec),
		all:       sortDurations(all),
		unmatched: h.unmatched,
		rawShare:  b.cls.share(),
	}
}

// replayPlan feeds the request stream one swmload batch will issue to
// the classifier, with the workers interleaved round-robin. swmload
// draws each worker's stream from rand.NewSource(Seed+worker) — a
// session, then a target, on every request — and makes every
// ExecEvery-th request of a worker an exec; discovery lists the running
// sessions in id order. The result is the workload's read-after-write
// share as its inputs define it, without timing anything.
func replayPlan(c *rawClassifier, cfg swmload.Config, sessions int) {
	const targets = 4
	type stream struct {
		rng *rand.Rand
		n   int
	}
	ws := make([]stream, cfg.Clients)
	for w := range ws {
		n := cfg.Requests / cfg.Clients
		if w < cfg.Requests%cfg.Clients {
			n++
		}
		ws[w] = stream{rng: rand.New(rand.NewSource(cfg.Seed + int64(w))), n: n}
	}
	for i := 0; ; i++ {
		active := false
		for w := range ws {
			if i >= ws[w].n {
				continue
			}
			active = true
			si := ws[w].rng.Intn(sessions)
			ws[w].rng.Intn(targets)
			exec := cfg.ExecEvery > 0 && (i+1)%cfg.ExecEvery == 0
			c.observe(si, exec)
		}
		if !active {
			return
		}
	}
}
