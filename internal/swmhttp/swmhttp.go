// Package swmhttp is the network transport for the swmproto control
// protocol: an HTTP/JSON service surface over a fleet of swm sessions.
//
// The paper's §5 protocol rides X properties — a shell-level channel
// into one window manager. This package is the same protocol on a real
// wire: requests decode into swmproto.Request, dispatch through the
// identical transport-agnostic handler the property channel uses
// (core.WM.ServeProto, reached here via fleet.Manager.ServeSession's
// lane routing), and answer with the uniform response envelope, HTTP
// status derived from the typed error code. There is no query-serving
// logic in this package — only decoding, routing and encoding.
//
// Routes (the route table in routes()):
//
//	GET  /healthz                      liveness: fleet up, how many sessions serving
//	GET  /metrics                      Prometheus text exposition of the obs registries
//	GET  /v1/sessions                  session discovery: id + lifecycle state
//	GET  /v1/sessions/{id}/stats       swmproto query targets, one route each
//	GET  /v1/sessions/{id}/trace
//	GET  /v1/sessions/{id}/clients
//	GET  /v1/sessions/{id}/desktop
//	POST /v1/sessions/{id}/exec        body {"command": "f.iconify(XTerm)"}
//
// Every handler runs inside the middleware stack: panic recovery (an
// internal-code envelope, never a dropped connection), request
// metrics (http.requests / http.errors counters, http.request_ns
// latency histogram, http.inflight gauge in the fleet registry), and
// an optional request log.
package swmhttp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/swmproto"
)

// Backend is what the transport serves: a session-addressed protocol
// handler plus the discovery and scrape surfaces. fleet.Manager is the
// production implementation; tests may substitute fakes. The interface
// deliberately carries no X types — the transport is as far from the
// display as swmproto itself.
type Backend interface {
	swmproto.SessionHandler
	// Sessions reports the fleet size (ids are 0..Sessions()-1).
	Sessions() int
	// SessionState names session i's lifecycle state ("running", ...).
	SessionState(i int) string
	// SessionRegistry returns session i's metrics registry, nil when
	// the session has no live WM. Must be safe from any goroutine.
	SessionRegistry(i int) *obs.Registry
	// Metrics returns the fleet-wide registry (also where the
	// transport registers its own http.* instruments).
	Metrics() *obs.Registry
}

// Config tunes the transport.
type Config struct {
	// Log receives one line per request (method, path, status,
	// duration); nil disables request logging.
	Log io.Writer
}

// maxExecBody bounds the exec request body. A longer body answers
// bad_request.
const maxExecBody = 1 << 20

// Server is the HTTP transport over a Backend. Create with New, expose
// with Handler (works under any net/http server, including httptest).
type Server struct {
	backend Backend
	cfg     Config
	handler http.Handler
	reqID   atomic.Uint64

	requests *obs.Counter
	errs     *obs.Counter
	latency  *obs.Histogram
	inflight *obs.Gauge
}

// ExecBody is the POST /v1/sessions/{id}/exec request body.
type ExecBody struct {
	Command string `json:"command"`
	// Screen selects the serving screen for multi-screen sessions
	// (default 0), exactly as swmproto.Request.Screen.
	Screen int `json:"screen,omitempty"`
}

// SessionInfo is one entry in the GET /v1/sessions discovery listing.
type SessionInfo struct {
	ID    int    `json:"id"`
	State string `json:"state"`
}

// SessionsResult is the GET /v1/sessions response body.
type SessionsResult struct {
	Sessions []SessionInfo `json:"sessions"`
}

// HealthResult is the GET /healthz response body.
type HealthResult struct {
	Status   string `json:"status"` // "ok" or "degraded"
	Sessions int    `json:"sessions"`
	Live     int    `json:"live"`
}

// New builds the transport: route table registered on a ServeMux,
// wrapped in the middleware stack, instruments registered in the
// backend's fleet registry.
func New(b Backend, cfg Config) *Server {
	reg := b.Metrics()
	s := &Server{
		backend:  b,
		cfg:      cfg,
		requests: reg.Counter("http.requests"),
		errs:     reg.Counter("http.errors"),
		latency:  reg.Histogram("http.request_ns", obs.LatencyBounds),
		inflight: reg.Gauge("http.inflight"),
	}
	mux := http.NewServeMux()
	for _, r := range s.routes() {
		mux.HandleFunc(r.method+" "+r.pattern, r.handle)
	}
	// Catch-all: unknown routes answer with the protocol envelope, not
	// net/http's plain-text 404, so clients can always decode the body.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		s.writeEnvelope(w, swmproto.Errorf(swmproto.CodeUnknownTarget, "no route %s %s", r.Method, r.URL.Path))
	})
	s.handler = s.middleware(mux)
	return s
}

// Handler returns the fully wrapped http.Handler.
func (s *Server) Handler() http.Handler { return s.handler }

// ListenAndServe serves the transport on addr until ctx is done, then
// shuts down gracefully (in-flight requests get up to five seconds to
// drain). swmhttpd exits through this path so Ctrl-C never drops a
// half-written envelope.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	srv := &http.Server{Addr: addr, Handler: s.handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		drain, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(drain)
	}
}

// route is one row of the route table.
type route struct {
	method  string
	pattern string
	handle  http.HandlerFunc
}

// routes is the transport's route table: every endpoint, one row each.
// Query targets share one parameterized handler — the table, not the
// handlers, is where the API surface is enumerated.
func (s *Server) routes() []route {
	return []route{
		{"GET", "/healthz", s.handleHealthz},
		{"GET", "/metrics", s.handleMetrics},
		{"GET", "/v1/sessions", s.handleSessions},
		{"GET", "/v1/sessions/{id}/stats", s.handleQuery(swmproto.TargetStats)},
		{"GET", "/v1/sessions/{id}/trace", s.handleQuery(swmproto.TargetTrace)},
		{"GET", "/v1/sessions/{id}/clients", s.handleQuery(swmproto.TargetClients)},
		{"GET", "/v1/sessions/{id}/desktop", s.handleQuery(swmproto.TargetDesktop)},
		{"POST", "/v1/sessions/{id}/exec", s.handleExec},
	}
}

// middleware wraps the mux in recovery, metrics and logging — the
// order is outermost first: recovery must see handler panics, metrics
// should not count a panicking request twice, the log line carries the
// final status.
func (s *Server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.requests.Inc()
		s.inflight.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			if rec := recover(); rec != nil {
				s.errs.Inc()
				if !sw.wrote {
					s.writeEnvelope(sw, swmproto.Errorf(swmproto.CodeInternal, "handler panic: %v", rec))
				}
			}
			s.inflight.Add(-1)
			s.latency.Observe(time.Since(start).Nanoseconds())
			if s.cfg.Log != nil {
				fmt.Fprintf(s.cfg.Log, "swmhttp: %s %s %d %v\n", r.Method, r.URL.Path, sw.status(), time.Since(start).Round(time.Microsecond))
			}
		}()
		next.ServeHTTP(sw, r)
	})
}

// The envelope buffer pool and shared header values: the 2xx serving
// path does not allocate its envelope buffer, and header assignment
// installs shared pre-built slices instead of copying strings through
// Header.Set.
var (
	envBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}
	ctJSON     = []string{"application/json; charset=utf-8"}
	ccNoStore  = []string{"no-store"}
)

// maxPooledEnvBuf caps the buffers envBufPool keeps. An exec body can
// grow a buffer to maxExecBody (1 MiB), and once pooled it would stay
// in circulation under steady traffic; the largest envelope the hot
// paths render, stats, is about 7 KB.
const maxPooledEnvBuf = 64 << 10

// putEnvBuf empties bp and returns it to envBufPool, or drops it if it
// has grown past maxPooledEnvBuf.
func putEnvBuf(bp *[]byte) {
	if cap(*bp) > maxPooledEnvBuf {
		return
	}
	*bp = (*bp)[:0]
	envBufPool.Put(bp)
}

// statusWriter remembers whether and what the handler wrote, for the
// recovery envelope and the request log.
type statusWriter struct {
	http.ResponseWriter
	wrote bool
	code  int
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.wrote = true
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.wrote = true
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) status() int {
	if !w.wrote {
		return http.StatusOK
	}
	return w.code
}

// writeEnvelope serves a protocol response: the envelope is the body,
// the HTTP status derives from the typed code — the single mapping
// both transports pin (swmproto.HTTPStatus).
func (s *Server) writeEnvelope(w http.ResponseWriter, resp swmproto.Response) {
	status := http.StatusOK
	if !resp.OK {
		status = swmproto.HTTPStatus(resp.Code)
		s.errs.Inc()
	}
	resp.V = swmproto.Version
	// Render into a pooled buffer with the append encoder — the wire
	// bytes are json.Encoder-identical (trailing newline included;
	// parity pinned in swmproto's encode_test.go) without the reflect
	// walk or the per-request encoder state.
	bp := envBufPool.Get().(*[]byte)
	buf := swmproto.AppendResponse((*bp)[:0], &resp)
	buf = append(buf, '\n')
	h := w.Header()
	h["Content-Type"] = ctJSON
	h["Cache-Control"] = ccNoStore
	h["Content-Length"] = []string{strconv.Itoa(len(buf))}
	w.WriteHeader(status)
	if _, err := w.Write(buf); err != nil && s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, "swmhttp: write envelope: %v\n", err)
	}
	*bp = buf
	putEnvBuf(bp)
}

// writeJSON serves a non-envelope payload (discovery, health).
func (s *Server) writeJSON(w http.ResponseWriter, status int, payload any) {
	h := w.Header()
	h["Content-Type"] = ctJSON
	h["Cache-Control"] = ccNoStore
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	if err := enc.Encode(payload); err != nil && s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, "swmhttp: write json: %v\n", err)
	}
}

// sessionID parses the {id} path component. Non-numeric ids are
// "sessions that do not exist": the unknown_session envelope, exactly
// like an out-of-range index, so clients see one failure mode.
func (s *Server) sessionID(w http.ResponseWriter, r *http.Request) (int, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		s.writeEnvelope(w, swmproto.Errorf(swmproto.CodeUnknownSession, "no session %q", r.PathValue("id")))
		return 0, false
	}
	return id, true
}

// handleQuery serves one swmproto query target: build the request,
// dispatch through the session-addressed handler, encode the envelope.
func (s *Server) handleQuery(target string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, ok := s.sessionID(w, r)
		if !ok {
			return
		}
		screen := 0
		// r.URL.Query() allocates its map even for bare URLs; the hot
		// path (no query string) must not pay for the cold one.
		if r.URL.RawQuery != "" {
			raw := r.URL.Query().Get("screen")
			if raw != "" {
				n, err := strconv.Atoi(raw)
				if err != nil {
					s.writeEnvelope(w, swmproto.Errorf(swmproto.CodeBadRequest, "bad screen %q", raw))
					return
				}
				screen = n
			}
		}
		s.writeEnvelope(w, s.backend.ServeSession(id, swmproto.Request{
			V:      swmproto.Version,
			ID:     s.reqID.Add(1),
			Op:     swmproto.OpQuery,
			Target: target,
			Screen: screen,
		}))
	}
}

// handleExec serves POST exec: decode the body, dispatch, encode. The
// decode path is fuzzed (FuzzExecEndpoint): malformed bodies must
// degrade to a bad_request envelope, never panic.
func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	id, ok := s.sessionID(w, r)
	if !ok {
		return
	}
	bp := envBufPool.Get().(*[]byte)
	defer putEnvBuf(bp)
	rd := bytes.NewBuffer((*bp)[:0])
	_, err := rd.ReadFrom(http.MaxBytesReader(w, r.Body, maxExecBody))
	body := rd.Bytes()
	*bp = body
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.writeEnvelope(w, swmproto.Errorf(swmproto.CodeBadRequest, "exec body over %d bytes", maxExecBody))
			return
		}
		s.writeEnvelope(w, swmproto.Errorf(swmproto.CodeBadRequest, "read exec body: %v", err))
		return
	}
	exec, err := decodeExecBody(body)
	if err != nil {
		s.writeEnvelope(w, swmproto.Errorf(swmproto.CodeBadRequest, "decode exec body: %v", err))
		return
	}
	if exec.Command == "" {
		s.writeEnvelope(w, swmproto.Errorf(swmproto.CodeBadRequest, "exec body has no command"))
		return
	}
	s.writeEnvelope(w, s.backend.ServeSession(id, swmproto.Request{
		V:       swmproto.Version,
		ID:      s.reqID.Add(1),
		Op:      swmproto.OpExec,
		Command: exec.Command,
		Screen:  exec.Screen,
	}))
}

// decodeExecBody decodes an exec request body. Both in-repo producers
// (swmcmd -http and swmload) send json.Marshal(ExecBody{Command: c}),
// which for a plain command is {"command":"<c>"}. That form is read by
// a prefix and suffix check when c is non-empty printable ASCII
// (0x20–0x7e) with no '"' or '\', so it needs no unescaping; every
// other body goes through json.Unmarshal. The scan accepts only bodies
// json.Unmarshal decodes to the same ExecBody, so the two paths cannot
// disagree (FuzzDecodeExecBody).
func decodeExecBody(body []byte) (ExecBody, error) {
	const head, tail = `{"command":"`, `"}`
	if n := len(body) - len(tail); n > len(head) && string(body[:len(head)]) == head && string(body[n:]) == tail {
		if c := body[len(head):n]; plainCommand(c) {
			return ExecBody{Command: string(c)}, nil
		}
	}
	var exec ExecBody
	err := json.Unmarshal(body, &exec)
	return exec, err
}

// plainCommand reports whether c is printable ASCII (0x20–0x7e) with
// no '"' or '\': a JSON string body that needs no unescaping.
func plainCommand(c []byte) bool {
	for _, b := range c {
		if b < 0x20 || b > 0x7e || b == '"' || b == '\\' {
			return false
		}
	}
	return true
}

// handleSessions serves discovery: every session id with its state.
func (s *Server) handleSessions(w http.ResponseWriter, _ *http.Request) {
	n := s.backend.Sessions()
	res := SessionsResult{Sessions: make([]SessionInfo, n)}
	for i := 0; i < n; i++ {
		res.Sessions[i] = SessionInfo{ID: i, State: s.backend.SessionState(i)}
	}
	s.writeJSON(w, http.StatusOK, res)
}

// handleHealthz serves liveness: 200 while at least one session is
// running, 503 when the whole fleet is down — the shape load balancers
// and the swmload generator probe before sending traffic.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	n := s.backend.Sessions()
	live := 0
	for i := 0; i < n; i++ {
		if s.backend.SessionState(i) == "running" {
			live++
		}
	}
	res := HealthResult{Status: "ok", Sessions: n, Live: live}
	status := http.StatusOK
	if live == 0 {
		res.Status = "degraded"
		status = http.StatusServiceUnavailable
	}
	s.writeJSON(w, status, res)
}

// handleMetrics serves the Prometheus text exposition: the fleet
// registry unlabeled, every live session's registry labeled
// session="<id>", series of one name grouped under a single family
// declaration (obs.ExportText). The per-session registries are read
// through the backend's scrape-safe accessor — no lane turns, no
// blocking a session to scrape it.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	n := s.backend.Sessions()
	regs := make([]obs.LabeledRegistry, 0, n+1)
	regs = append(regs, obs.LabeledRegistry{Registry: s.backend.Metrics()})
	for i := 0; i < n; i++ {
		if reg := s.backend.SessionRegistry(i); reg != nil {
			regs = append(regs, obs.LabeledRegistry{Registry: reg, Labels: []obs.Label{{Key: "session", Value: strconv.Itoa(i)}}})
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	if err := obs.ExportText(w, regs...); err != nil && s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, "swmhttp: metrics export: %v\n", err)
	}
}
