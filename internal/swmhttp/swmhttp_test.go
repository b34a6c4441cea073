package swmhttp_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/clients"
	"repro/internal/fleet"
	"repro/internal/swmhttp"
	"repro/internal/swmproto"
)

// The production backend satisfies the transport interface.
var _ swmhttp.Backend = (*fleet.Manager)(nil)

// newStack brings up a live fleet behind a live HTTP listener — every
// test in this file exercises the transport over real sockets.
func newStack(t *testing.T, sessions int) (*fleet.Manager, *httptest.Server) {
	t.Helper()
	m, err := fleet.New(fleet.Config{Sessions: sessions, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	m.StartAll()
	m.Drain()
	ts := httptest.NewServer(swmhttp.New(m, swmhttp.Config{}).Handler())
	t.Cleanup(ts.Close)
	return m, ts
}

func launchClients(t *testing.T, m *fleet.Manager, i, n int) {
	t.Helper()
	for j := 0; j < n; j++ {
		_, err := clients.Launch(m.Session(i).Server(), clients.Config{
			Instance: fmt.Sprintf("s%dc%d", i, j), Class: "XTerm",
			Width: 120, Height: 90, X: 8 * j, Y: 6 * j,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	m.Pump(i)
	m.Drain()
}

// getEnvelope performs a GET and decodes the protocol envelope.
func getEnvelope(t *testing.T, url string) (int, swmproto.Response) {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var resp swmproto.Response
	if err := json.NewDecoder(res.Body).Decode(&resp); err != nil {
		t.Fatalf("GET %s: body is not an envelope: %v", url, err)
	}
	return res.StatusCode, resp
}

func postEnvelope(t *testing.T, url, body string) (int, swmproto.Response) {
	t.Helper()
	res, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var resp swmproto.Response
	if err := json.NewDecoder(res.Body).Decode(&resp); err != nil {
		t.Fatalf("POST %s: body is not an envelope: %v", url, err)
	}
	return res.StatusCode, resp
}

func TestHealthz(t *testing.T) {
	_, ts := newStack(t, 2)
	res, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d", res.StatusCode)
	}
	var h swmhttp.HealthResult
	if err := json.NewDecoder(res.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Sessions != 2 || h.Live != 2 {
		t.Errorf("healthz = %+v", h)
	}
}

func TestHealthzDegraded(t *testing.T) {
	m, ts := newStack(t, 2)
	m.StopAll()
	m.Drain()
	res, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("dead-fleet healthz status = %d, want 503", res.StatusCode)
	}
	var h swmhttp.HealthResult
	if err := json.NewDecoder(res.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || h.Live != 0 {
		t.Errorf("dead-fleet healthz = %+v", h)
	}
}

func TestSessionsDiscovery(t *testing.T) {
	m, ts := newStack(t, 3)
	m.Stop(1)
	m.Drain()
	res, err := http.Get(ts.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var list swmhttp.SessionsResult
	if err := json.NewDecoder(res.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sessions) != 3 {
		t.Fatalf("sessions = %+v", list.Sessions)
	}
	wantStates := []string{"running", "stopped", "running"}
	for i, s := range list.Sessions {
		if s.ID != i || s.State != wantStates[i] {
			t.Errorf("session %d = %+v, want state %s", i, s, wantStates[i])
		}
	}
}

func TestStatsRoundTrip(t *testing.T) {
	m, ts := newStack(t, 2)
	launchClients(t, m, 1, 3)

	status, resp := getEnvelope(t, ts.URL+"/v1/sessions/1/stats")
	if status != http.StatusOK || !resp.OK {
		t.Fatalf("stats = %d %+v", status, resp)
	}
	if resp.V != swmproto.Version {
		t.Errorf("envelope version = %d", resp.V)
	}
	var stats swmproto.StatsResult
	if err := json.Unmarshal(resp.Result, &stats); err != nil {
		t.Fatal(err)
	}
	if got := stats.Metrics.Counters["wm.managed"]; got != 3 {
		t.Errorf("session 1 wm.managed = %d, want 3", got)
	}

	// Session isolation over the wire: session 0 manages nothing.
	_, resp = getEnvelope(t, ts.URL+"/v1/sessions/0/stats")
	if err := json.Unmarshal(resp.Result, &stats); err != nil {
		t.Fatal(err)
	}
	if got := stats.Metrics.Counters["wm.managed"]; got != 0 {
		t.Errorf("session 0 wm.managed = %d, want 0", got)
	}
}

// TestExecAck pins the write path: the ack comes back over HTTP and the
// effect is observable in a follow-up query.
func TestExecAck(t *testing.T) {
	m, ts := newStack(t, 1)
	launchClients(t, m, 0, 1)

	status, resp := postEnvelope(t, ts.URL+"/v1/sessions/0/exec", `{"command":"f.iconify(XTerm)"}`)
	if status != http.StatusOK || !resp.OK {
		t.Fatalf("exec = %d %+v", status, resp)
	}

	_, resp = getEnvelope(t, ts.URL+"/v1/sessions/0/clients")
	var res swmproto.ClientsResult
	if err := json.Unmarshal(resp.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Clients) != 1 || res.Clients[0].State != "iconic" {
		t.Errorf("after exec clients = %+v, want one iconic", res.Clients)
	}

	// A failing command maps through the shared code table.
	status, resp = postEnvelope(t, ts.URL+"/v1/sessions/0/exec", `{"command":"f.bogus()"}`)
	if status != swmproto.HTTPStatus(swmproto.CodeExecFailed) || resp.Code != swmproto.CodeExecFailed {
		t.Errorf("bogus exec = %d %+v", status, resp)
	}
}

func TestErrorEnvelopes(t *testing.T) {
	m, ts := newStack(t, 2)
	m.Stop(1)
	m.Drain()

	cases := []struct {
		name, method, path, body string
		wantCode                 string
	}{
		{"out-of-range session", "GET", "/v1/sessions/99/stats", "", swmproto.CodeUnknownSession},
		{"non-numeric session", "GET", "/v1/sessions/abc/stats", "", swmproto.CodeUnknownSession},
		{"stopped session", "GET", "/v1/sessions/1/stats", "", swmproto.CodeSessionDown},
		{"unknown route", "GET", "/v1/nonsense", "", swmproto.CodeUnknownTarget},
		{"malformed exec json", "POST", "/v1/sessions/0/exec", `{"command":`, swmproto.CodeBadRequest},
		{"exec without command", "POST", "/v1/sessions/0/exec", `{}`, swmproto.CodeBadRequest},
		{"bad screen param", "GET", "/v1/sessions/0/stats?screen=junk", "", swmproto.CodeBadRequest},
		{"out-of-range screen", "GET", "/v1/sessions/0/stats?screen=7", "", swmproto.CodeBadRequest},
	}
	for _, tc := range cases {
		var status int
		var resp swmproto.Response
		if tc.method == "GET" {
			status, resp = getEnvelope(t, ts.URL+tc.path)
		} else {
			status, resp = postEnvelope(t, ts.URL+tc.path, tc.body)
		}
		if resp.OK || resp.Code != tc.wantCode {
			t.Errorf("%s: envelope = %+v, want code %s", tc.name, resp, tc.wantCode)
		}
		if want := swmproto.HTTPStatus(tc.wantCode); status != want {
			t.Errorf("%s: status = %d, want %d", tc.name, status, want)
		}
	}
}

// TestGoldenTransportParity is the zero-duplication proof: the same
// query against the same session answers with byte-identical Result
// payloads whether it arrives by X property or by HTTP, because both
// transports dispatch through the one WM.ServeProto.
func TestGoldenTransportParity(t *testing.T) {
	m, ts := newStack(t, 1)
	launchClients(t, m, 0, 2)

	s := m.Session(0).Server()
	cl, err := swmproto.NewClient(s.Connect("swmcmd"), s.Screens()[0].Root)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Stats is excluded: its payload embeds the live metrics snapshot,
	// which the act of querying moves. Clients and desktop are
	// deterministic state, so their payloads must match byte for byte.
	for _, target := range []string{
		swmproto.TargetClients, swmproto.TargetDesktop,
	} {
		// Property transport: write SWM_QUERY, pump, poll SWM_REPLY.
		if _, err := cl.Send(swmproto.Request{Op: swmproto.OpQuery, Target: target}); err != nil {
			t.Fatal(err)
		}
		m.Pump(0)
		m.Drain()
		prop, ok, err := cl.Poll()
		if err != nil || !ok {
			t.Fatalf("%s: property reply ok=%v err=%v", target, ok, err)
		}

		// HTTP transport: same session, same target.
		_, web := getEnvelope(t, ts.URL+"/v1/sessions/0/"+target)

		if !prop.OK || !web.OK {
			t.Fatalf("%s: prop=%+v web=%+v", target, prop, web)
		}
		if !bytes.Equal(prop.Result, web.Result) {
			t.Errorf("%s: transports disagree\nproperty: %s\nhttp:     %s", target, prop.Result, web.Result)
		}
	}
}

func TestMetricsExposition(t *testing.T) {
	m, ts := newStack(t, 2)
	launchClients(t, m, 0, 1)

	// A few requests first so the transport's own instruments move.
	for i := 0; i < 3; i++ {
		getEnvelope(t, ts.URL+"/v1/sessions/0/stats")
	}

	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("metrics content type = %q", ct)
	}
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE swm_fleet_sessions_live gauge\n",
		"swm_fleet_sessions_live 2\n",
		"# TYPE swm_http_requests counter\n",
		"# TYPE swm_http_request_ns histogram\n",
		"swm_http_request_ns_bucket{le=\"+Inf\"}",
		`session="0"`,
		`session="1"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Fleet health has one home, the fleet registry: every swm_fleet_*
	// family is one unlabeled series, with no per-session copies.
	fleetSeries := map[string][]string{} // family -> its series
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			if family, _, _ := strings.Cut(rest, " "); strings.HasPrefix(family, "swm_fleet_") {
				fleetSeries[family] = nil
			}
			continue
		}
		if series, _, _ := strings.Cut(line, " "); strings.HasPrefix(series, "swm_fleet_") {
			family, _, _ := strings.Cut(series, "{")
			fleetSeries[family] = append(fleetSeries[family], series)
		}
	}
	if len(fleetSeries) == 0 {
		t.Error("metrics has no swm_fleet_* family")
	}
	for family, series := range fleetSeries {
		if len(series) != 1 || series[0] != family {
			t.Errorf("family %s has series %v, want the one unlabeled series", family, series)
		}
	}
	// The fleet keeps serving scrapes for live sessions only: stop one
	// and its labeled series disappear rather than going stale.
	m.Stop(1)
	m.Drain()
	res2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	body, err = io.ReadAll(res2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(body), `session="1"`) {
		t.Error("stopped session still exported")
	}
}

// TestConcurrentQueries hammers a live listener from many goroutines —
// the full socket → mux → lane → WM → envelope path under -race.
func TestConcurrentQueries(t *testing.T) {
	m, ts := newStack(t, 4)
	for i := 0; i < 4; i++ {
		launchClients(t, m, i, 2)
	}

	client := ts.Client()
	const goroutines = 16
	const perG = 20
	paths := []string{"stats", "clients", "desktop", "trace"}
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				url := fmt.Sprintf("%s/v1/sessions/%d/%s", ts.URL, (g+i)%4, paths[i%len(paths)])
				res, err := client.Get(url)
				if err != nil {
					errs <- err.Error()
					continue
				}
				var resp swmproto.Response
				err = json.NewDecoder(res.Body).Decode(&resp)
				res.Body.Close()
				if err != nil {
					errs <- err.Error()
				} else if !resp.OK {
					errs <- resp.Error
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("concurrent query: %s", e)
	}
}

// TestResponseHeaders pins the JSON response headers across the
// surface: envelopes (success and error), discovery and health all
// declare an explicit charset and forbid caching — a snapshot-cached
// payload is only correct for one generation, and a proxy that cached
// it would serve state the fleet has already moved past.
func TestResponseHeaders(t *testing.T) {
	m, ts := newStack(t, 2)
	launchClients(t, m, 0, 1)

	urls := []string{
		ts.URL + "/v1/sessions/0/stats",   // warm-path envelope
		ts.URL + "/v1/sessions/0/stats",   // repeat: served from cache
		ts.URL + "/v1/sessions/0/clients", // miss on a second target
		ts.URL + "/v1/sessions/99/stats",  // error envelope
		ts.URL + "/no/such/route",         // catch-all envelope
		ts.URL + "/v1/sessions",           // discovery (writeJSON)
		ts.URL + "/healthz",               // health (writeJSON)
	}
	for _, url := range urls {
		res, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, res.Body) //nolint:errcheck
		res.Body.Close()
		if ct := res.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
			t.Errorf("GET %s: Content-Type = %q, want application/json; charset=utf-8", url, ct)
		}
		if cc := res.Header.Get("Cache-Control"); cc != "no-store" {
			t.Errorf("GET %s: Cache-Control = %q, want no-store", url, cc)
		}
	}

	// Envelopes carry an explicit Content-Length (no chunked framing:
	// the body was rendered to a buffer before the status line).
	res, err := http.Get(ts.URL + "/v1/sessions/0/desktop")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.ContentLength != int64(len(body)) || res.ContentLength <= 0 {
		t.Errorf("desktop envelope Content-Length = %d, body is %d bytes", res.ContentLength, len(body))
	}
}

// nullWriter is the allocation probe's ResponseWriter: a header map
// reused across requests and a discarding body sink, so the probe
// counts the serving path's allocations, not the recorder's.
type nullWriter struct {
	h http.Header
	n int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
func (w *nullWriter) WriteHeader(int)             {}

// TestWarmQueryAllocs pins the zero-alloc serving claim at the
// transport seam: a warm stats query through the full handler stack —
// mux, middleware, session cache, envelope encode — stays within the
// http-stats-query perfbench budget without a socket in the way.
func TestWarmQueryAllocs(t *testing.T) {
	m, err := fleet.New(fleet.Config{Sessions: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	m.StartAll()
	m.Drain()
	launchClients(t, m, 0, 2)

	h := swmhttp.New(m, swmhttp.Config{}).Handler()
	req := httptest.NewRequest("GET", "/v1/sessions/0/stats", nil)
	w := &nullWriter{h: make(http.Header, 8)}
	h.ServeHTTP(w, req) // warm the cache and the pools
	if w.n == 0 {
		t.Fatal("warm-up request wrote no body")
	}

	allocs := testing.AllocsPerRun(200, func() {
		w.n = 0
		h.ServeHTTP(w, req)
		if w.n == 0 {
			t.Fatal("warm request wrote no body")
		}
	})
	// The perfbench budget is 20; the in-process path should sit far
	// below it, leaving the headroom for the socket layer.
	if allocs > 20 {
		t.Errorf("warm stats query allocates %.0f/op, budget 20", allocs)
	}
	t.Logf("warm stats query: %.1f allocs/op", allocs)
}
