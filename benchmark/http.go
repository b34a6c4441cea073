package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/clients"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/swmhttp"
	"repro/internal/swmload"
	"repro/internal/swmproto"
)

// fleetSessions is the fleet size both HTTP workloads run against, as
// `swmload -selfhost 64`. fleetWorkers is its scheduler pool, fixed so
// the lanes do not follow the benchmark's GOMAXPROCS of 1.
const (
	fleetSessions = 64
	fleetWorkers  = 2
)

// httpMix is one HTTP workload: the swmload request mix and how many
// requests one batch (one swmload.Run) issues: about a quarter second,
// shorter than the host's speed phases (see segments).
type httpMix struct {
	execEvery int
	command   string
	batch     int
}

var httpMixes = map[string]httpMix{
	"http-read-hot":  {batch: 8000},
	"http-write-mix": {execEvery: 3, command: "f.circleup", batch: 5000},
}

// httpEnv is one running fleet behind two loopback listeners: plain
// serves swmhttp over the fleet as deployed; traced serves the same
// fleet through the benchmark's timing wrappers. Untimed batches and
// the whole untraced run use plain only.
type httpEnv struct {
	m         *fleet.Manager
	plainURL  string
	tracedURL string
	tb        *tracedBackend
	th        *tracedHandler
	stops     []func()

	// requests counts the benchmark's own requests outside swmload
	// batches (checks and scrapes), for the /metrics cross-check.
	requests int
}

// startFleet brings a fleet up as `swmload -selfhost` does: every
// session running with two managed clients, served on loopback.
func startFleet() (*httpEnv, error) {
	m, err := fleet.New(fleet.Config{Sessions: fleetSessions, Workers: fleetWorkers})
	if err != nil {
		return nil, err
	}
	e := &httpEnv{m: m}
	m.StartAll()
	m.Drain()
	if st := m.Stats(); st.Live != fleetSessions {
		e.close()
		return nil, fmt.Errorf("fleet came up with %d of %d sessions live", st.Live, fleetSessions)
	}
	for i := 0; i < fleetSessions; i++ {
		for j := 0; j < 2; j++ {
			if _, err := clients.Launch(m.Session(i).Server(), clients.Config{
				Instance: fmt.Sprintf("s%dc%d", i, j), Class: "XTerm",
				Width: 120, Height: 90, X: 8 * j, Y: 6 * j,
			}); err != nil {
				e.close()
				return nil, err
			}
		}
	}
	m.PumpAll()
	m.Drain()

	if e.plainURL, err = e.serve(swmhttp.New(m, swmhttp.Config{}).Handler()); err != nil {
		e.close()
		return nil, err
	}
	e.tb = newTracedBackend(m)
	e.th = &tracedHandler{next: swmhttp.New(e.tb, swmhttp.Config{}).Handler(), b: e.tb}
	if e.tracedURL, err = e.serve(e.th); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// serve starts an HTTP server for h on a loopback port and returns its
// base URL; close stops it and waits for its accept loop to return.
func (e *httpEnv) serve(h http.Handler) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(l) // always ErrServerClosed once close runs
	}()
	e.stops = append(e.stops, func() {
		srv.Close()
		<-done
	})
	return "http://" + l.Addr().String(), nil
}

func (e *httpEnv) close() {
	for _, stop := range e.stops {
		stop()
	}
	e.m.Close()
}

// sessionCounter sums one counter over every session registry.
func (e *httpEnv) sessionCounter(name string) int64 {
	var n int64
	for i := 0; i < fleetSessions; i++ {
		if reg := e.m.SessionRegistry(i); reg != nil {
			n += reg.Counter(name).Value()
		}
	}
	return n
}

// sessionHistSum sums one histogram's total over every session registry.
func (e *httpEnv) sessionHistSum(name string) int64 {
	var n int64
	for i := 0; i < fleetSessions; i++ {
		if reg := e.m.SessionRegistry(i); reg != nil {
			n += reg.Histogram(name, obs.LatencyBounds).Sum()
		}
	}
	return n
}

// scrape reads the fleet-wide http_requests and http_errors counters
// from the service's own /metrics exposition.
func (e *httpEnv) scrape(client *http.Client) (requests, errs int64, err error) {
	e.requests++
	res, err := client.Get(e.plainURL + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer res.Body.Close()
	found := 0
	sc := bufio.NewScanner(res.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		var dst *int64
		switch name {
		case "swm_http_requests":
			dst = &requests
		case "swm_http_errors":
			dst = &errs
		default:
			continue
		}
		if *dst, err = strconv.ParseInt(value, 10, 64); err != nil {
			return 0, 0, fmt.Errorf("parse %s: %w", name, err)
		}
		found++
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	if found != 2 {
		return 0, 0, fmt.Errorf("/metrics lacks swm_http_requests or swm_http_errors")
	}
	return requests, errs, nil
}

// checkBodies reads every query target of every session and decodes
// each body into the swmproto result type of its target. It reports
// one problem per bad response.
func (e *httpEnv) checkBodies(client *http.Client, r *report) {
	for id := 0; id < fleetSessions; id++ {
		for _, target := range []string{swmproto.TargetStats, swmproto.TargetTrace, swmproto.TargetClients, swmproto.TargetDesktop} {
			e.requests++
			r.attempted++
			if err := e.checkBody(client, id, target); err != nil {
				r.fail("session %d %s: %v", id, target, err)
			}
		}
	}
}

func (e *httpEnv) checkBody(client *http.Client, id int, target string) error {
	res, err := client.Get(fmt.Sprintf("%s/v1/sessions/%d/%s", e.plainURL, id, target))
	if err != nil {
		return err
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		return err
	}
	resp, err := swmproto.DecodeResponse(body)
	if err != nil {
		return err
	}
	if !resp.OK || res.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d, envelope %s: %s", res.StatusCode, resp.Code, resp.Error)
	}
	switch target {
	case swmproto.TargetStats:
		var v swmproto.StatsResult
		if err := json.Unmarshal(resp.Result, &v); err != nil {
			return err
		}
		if v.Metrics.Counters["wm.managed"] < 2 || v.Degraded != 0 {
			return fmt.Errorf("stats: %d managed, %d degraded", v.Metrics.Counters["wm.managed"], v.Degraded)
		}
	case swmproto.TargetTrace:
		var v swmproto.TraceResult
		if err := json.Unmarshal(resp.Result, &v); err != nil {
			return err
		}
		if v.Cap <= 0 {
			return fmt.Errorf("trace: capacity %d", v.Cap)
		}
	case swmproto.TargetClients:
		var v swmproto.ClientsResult
		if err := json.Unmarshal(resp.Result, &v); err != nil {
			return err
		}
		if len(v.Clients) != 2 {
			return fmt.Errorf("clients: %d managed, want 2", len(v.Clients))
		}
	case swmproto.TargetDesktop:
		var v swmproto.DesktopResult
		if err := json.Unmarshal(resp.Result, &v); err != nil {
			return err
		}
		if len(v.Screens) != 1 {
			return fmt.Errorf("desktop: %d screens, want 1", len(v.Screens))
		}
	}
	return nil
}

// runHTTP measures one HTTP workload: repeated fleet bring-up for
// setup_s, then closed-loop swmload batches until the run time is
// spent. With trace set, batches alternate between the traced and the
// plain listener, so one run yields both the per-layer numbers and the
// tracing overhead.
func runHTTP(name string, seed int64, seconds float64, trace bool, r *report) error {
	mix := httpMixes[name]
	conns := loadConns
	r.record["connections"] = strconv.Itoa(conns)
	r.record["sessions"] = strconv.Itoa(fleetSessions)

	env, setups, err := setUp(startFleet, (*httpEnv).close)
	if err != nil {
		return err
	}
	defer env.close()
	lastSetup := time.Now()

	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	env.checkBodies(client, r)
	req0, errs0, err := env.scrape(client)
	if err != nil {
		return err
	}
	own0 := env.requests

	var (
		plain, traced   segments
		plan            = newRawClassifier(fleetSessions)
		xreq, lockWait  int64
		batches, execs  int
		ops             int
		g0              = readGo()
		clientFailures  int
		discoveryPerRun = 2 // swmload probes /healthz and lists /v1/sessions
	)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for b := 0; b < minSegments(trace) || time.Now().Before(deadline); b++ {
		useTraced := trace && b%2 == 0
		url := env.plainURL
		if useTraced {
			url = env.tracedURL
		}
		cfg := swmload.Config{
			BaseURL:     url,
			Clients:     conns,
			Requests:    mix.batch,
			Seed:        1 + seed*1_000_000 + int64(b)*int64(conns),
			ExecEvery:   mix.execEvery,
			ExecCommand: mix.command,
		}
		replayPlan(plan, cfg, fleetSessions)
		x0, w0 := env.sessionCounter("xreq.total"), env.sessionHistSum("xserver.lock_wait_ns")
		sum, err := swmload.Run(cfg)
		if err != nil {
			return err
		}
		xreq += env.sessionCounter("xreq.total") - x0
		lockWait += env.sessionHistSum("xserver.lock_wait_ns") - w0
		batches++
		ops += sum.Requests
		execs += sum.ByTarget["exec"]
		clientFailures += sum.Errors
		r.attempted += sum.Requests
		r.failed += sum.Errors
		if sum.Errors > 0 {
			r.problems = append(r.problems, fmt.Sprintf("batch %d: %d failed requests %v", b, sum.Errors, sum.ByCode))
		}
		if useTraced {
			traced.add(sum.Requests, sum.Elapsed, sum.P50, sum.P99)
		} else {
			plain.add(sum.Requests, sum.Elapsed, sum.P50, sum.P99)
		}
		if mix.execEvery > 0 {
			// Execs queue X events on every WM connection they touch; a
			// live WM would drain them. Pump between batches, outside
			// the timed window, so the event queues stay bounded. The
			// pump is a write to every session.
			env.m.PumpAll()
			env.m.Drain()
			env.tb.markAllWritten()
			plan.markAll()
		}
		if time.Since(lastSetup) >= setupEvery {
			start := time.Now()
			extra, err := startFleet()
			if err != nil {
				return err
			}
			setups = append(setups, time.Since(start).Seconds())
			extra.close()
			lastSetup = time.Now()
		}
	}
	g1 := readGo()

	env.checkBodies(client, r)
	req1, errs1, err := env.scrape(client)
	if err != nil {
		return err
	}
	// Every request between the two scrapes, the second scrape included:
	// it counts itself before it renders.
	wantReq := int64(ops + batches*discoveryPerRun + env.requests - own0)
	r.attempted += 2
	if got := req1 - req0; got != wantReq {
		r.fail("/metrics http_requests delta %d, client side sent %d", got, wantReq)
	}
	if got := errs1 - errs0; got != int64(clientFailures) {
		r.fail("/metrics http_errors delta %d, client side saw %d failures", got, clientFailures)
	}

	r.add("setup_s", "s", median(setups))
	r.add("setups", "count", float64(len(setups)))
	r.add("ops", "count", float64(ops))
	r.add("batches", "count", float64(batches))
	r.add("exec_requests", "count", float64(execs))
	r.add("read_after_write_share", "share", plan.share())

	if !trace {
		r.add("ops_per_s", "1/s", plain.opsPerSecond())
		r.add("p50_us", "us", plain.p50us())
		r.add("p99_us", "us", plain.p99us())
		r.add("heap_mb", "MB", liveHeapMB(env))
		return nil
	}

	d := g1.sub(g0)
	r.add("go.allocs_per_op", "count", float64(d.allocObjs)/float64(ops))
	r.add("go.alloc_bytes_per_op", "B", float64(d.allocBytes)/float64(ops))
	r.add("go.gc_cpu_share", "share", d.gcShare())
	r.add("xserver.requests_per_op", "count", float64(xreq)/float64(ops))
	if execs > 0 {
		r.add("xserver.requests_per_exec", "count", float64(xreq)/float64(execs))
	}
	r.add("xserver.lock_wait_us.sum", "us", float64(lockWait)/1e3)

	tr := env.snapshotTrace()
	rt50 := traced.p50us()
	r.add("client.roundtrip_us.p50", "us", rt50)
	r.add("client.roundtrip_us.p99", "us", traced.p99us())
	serve50 := usec(percentile(tr.serve, 50))
	r.add("swmhttp.serve_us.p50", "us", serve50)
	r.add("swmhttp.serve_us.p99", "us", usec(percentile(tr.serve, 99)))
	r.add("net.self_us.p50", "us", rt50-serve50)
	self50 := usec(percentile(tr.self, 50))
	r.add("swmhttp.self_us.p50", "us", self50)
	r.add("swmhttp.self_us.p99", "us", usec(percentile(tr.self, 99)))
	r.add("swmhttp.unmatched", "count", float64(tr.unmatched))
	for _, c := range []struct {
		name string
		d    []time.Duration
	}{{"fleet.query_warm_us", tr.warm}, {"fleet.query_cold_us", tr.cold}, {"fleet.exec_us", tr.exec}} {
		r.add(c.name+".n", "count", float64(len(c.d)))
		if len(c.d) > 0 {
			r.add(c.name+".p50", "us", usec(percentile(c.d, 50)))
			r.add(c.name+".p99", "us", usec(percentile(c.d, 99)))
		}
	}
	if len(tr.execServe) > 0 {
		// Exec latency needs each request's type, which only the traced
		// path sees: handler entry to envelope written, for POST exec.
		r.add("write_p50_us", "us", usec(percentile(tr.execServe, 50)))
	}
	r.add("fleet.read_after_write_share", "share", tr.rawShare)
	fleet50 := usec(percentile(tr.all, 50))
	r.add("fleet.serve_session_us.p50", "us", fleet50)

	// Layer sum: the chain's self times against the generator's p50.
	r.layerSum(rt50, map[string]float64{"net": rt50 - serve50, "swmhttp": self50, "fleet": fleet50})
	r.add("trace.overhead", "ratio", rt50/plain.p50us())
	return nil
}
