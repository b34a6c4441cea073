// Package swmload is the traffic generator for the swmproto HTTP
// service: a seeded load driver that sustains many concurrent clients
// issuing query and exec requests against a live fleet and reports
// latency percentiles and error rates.
//
// The shape is deliberately boring and reproducible:
//
//   - Workers are closed-loop: each issues its next request when the
//     previous one completes, so concurrency == Clients exactly and the
//     generator cannot outrun the service into a coordinated-omission
//     death spiral.
//   - Every worker owns a rand.Rand seeded Seed+worker. The request mix
//     (session choice, target choice, exec cadence) is a pure function
//     of the seed, so two runs with the same Config hit the fleet with
//     the same request stream — the property the perfbench workload and
//     the CI smoke rely on to compare numbers across commits.
//   - The generator's own cost is kept off the books: every request is
//     prebuilt to raw bytes once per (session, target) at setup, each
//     worker owns one keep-alive connection driven by the package's
//     raw HTTP/1.1 client (see loadConn), responses land in a reused
//     per-worker buffer, and the common envelope is classified by a
//     prefix scan instead of a JSON decode. The warm request path
//     performs two syscalls and zero allocations. Latencies are
//     recorded per worker (no contended append) and merged once the
//     run ends.
//
// An error is any transport failure, non-envelope body, or !ok
// envelope; ByCode counts the protocol error classes seen so a failure
// mode is nameable, not just countable.
package swmload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"repro/internal/swmhttp"
	"repro/internal/swmproto"
)

// Config tunes one load run.
type Config struct {
	// BaseURL locates the service, e.g. "http://127.0.0.1:7070".
	BaseURL string
	// Clients is the number of concurrent workers (default 100).
	Clients int
	// Requests is the total request count across all workers
	// (default 10,000).
	Requests int
	// Seed makes the request mix reproducible (default 1).
	Seed int64
	// ExecEvery makes every Nth request per worker an exec instead of
	// a query; 0 disables execs.
	ExecEvery int
	// ExecCommand is the command execs deliver (default "f.nop" —
	// a full round-trip through the command interpreter with no
	// window-state side effects, so runs are independent).
	ExecCommand string
	// Timeout bounds how long each request may wait for response
	// headers (default 10s).
	Timeout time.Duration
}

// Summary is the result of one load run. Durations marshal as
// nanoseconds (time.Duration's JSON form).
type Summary struct {
	Requests int            `json:"requests"`
	Errors   int            `json:"errors"`
	Clients  int            `json:"clients"`
	Sessions int            `json:"sessions"`
	Elapsed  time.Duration  `json:"elapsed_ns"`
	QPS      float64        `json:"qps"`
	P50      time.Duration  `json:"p50_ns"`
	P95      time.Duration  `json:"p95_ns"`
	P99      time.Duration  `json:"p99_ns"`
	Max      time.Duration  `json:"max_ns"`
	ByTarget map[string]int `json:"by_target"`
	ByCode   map[string]int `json:"by_code"`
}

// ErrorRate is Errors over Requests, 0 for an empty run.
func (s Summary) ErrorRate() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Errors) / float64(s.Requests)
}

// Format writes the human-readable report.
func (s Summary) Format(w io.Writer) {
	fmt.Fprintf(w, "requests  %d (%d clients, %d sessions)\n", s.Requests, s.Clients, s.Sessions)
	fmt.Fprintf(w, "elapsed   %v (%.0f req/s)\n", s.Elapsed.Round(time.Millisecond), s.QPS)
	fmt.Fprintf(w, "latency   p50=%v p95=%v p99=%v max=%v\n",
		s.P50.Round(time.Microsecond), s.P95.Round(time.Microsecond),
		s.P99.Round(time.Microsecond), s.Max.Round(time.Microsecond))
	fmt.Fprintf(w, "errors    %d (%.2f%%)\n", s.Errors, 100*s.ErrorRate())
	targets := make([]string, 0, len(s.ByTarget))
	for t := range s.ByTarget {
		targets = append(targets, t)
	}
	sort.Strings(targets)
	for _, t := range targets {
		fmt.Fprintf(w, "  %-8s %d\n", t, s.ByTarget[t])
	}
	codes := make([]string, 0, len(s.ByCode))
	for c := range s.ByCode {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	for _, c := range codes {
		fmt.Fprintf(w, "  code %-16s %d\n", c, s.ByCode[c])
	}
}

// workerResult is one worker's tally, merged after the run.
type workerResult struct {
	latencies []time.Duration
	errors    int
	byTarget  map[string]int
	byCode    map[string]int
}

// Run executes one load run: probe health, discover running sessions,
// build the request plan, fan out workers, merge the tallies.
func Run(cfg Config) (Summary, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 100
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 10000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.ExecCommand == "" {
		cfg.ExecCommand = "f.nop"
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	// Discovery is two requests; the stdlib client is fine there. The
	// load path never touches it — each worker drives its own raw
	// connection.
	sessions, err := discover(&http.Client{Timeout: cfg.Timeout}, cfg.BaseURL)
	if err != nil {
		return Summary{}, err
	}
	p, err := buildPlan(cfg, sessions)
	if err != nil {
		return Summary{}, err
	}

	results := make([]workerResult, cfg.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Clients; w++ {
		n := cfg.Requests / cfg.Clients
		if w < cfg.Requests%cfg.Clients {
			n++
		}
		if n == 0 {
			continue
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			results[w] = worker(cfg, p, cfg.Seed+int64(w), n)
		}(w, n)
	}
	wg.Wait()
	return merge(cfg, len(sessions), time.Since(start), results), nil
}

// merge folds the per-worker tallies into the run summary.
func merge(cfg Config, sessions int, elapsed time.Duration, results []workerResult) Summary {
	s := Summary{
		Clients:  cfg.Clients,
		Sessions: sessions,
		Elapsed:  elapsed,
		ByTarget: make(map[string]int),
		ByCode:   make(map[string]int),
	}
	var all []time.Duration
	for i := range results {
		r := &results[i]
		all = append(all, r.latencies...)
		s.Errors += r.errors
		for t, n := range r.byTarget {
			s.ByTarget[t] += n
		}
		for c, n := range r.byCode {
			s.ByCode[c] += n
		}
	}
	// Requests counts attempts (transport failures included, though
	// they have no latency sample); percentiles cover completed ones.
	for _, n := range s.ByTarget {
		s.Requests += n
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if len(all) > 0 {
		s.P50 = percentile(all, 50)
		s.P95 = percentile(all, 95)
		s.P99 = percentile(all, 99)
		s.Max = all[len(all)-1]
		if sec := elapsed.Seconds(); sec > 0 {
			s.QPS = float64(len(all)) / sec
		}
	}
	return s
}

// discover probes /healthz and lists the running sessions — the load
// targets. A dead fleet is a setup error, not a measurement.
func discover(client *http.Client, baseURL string) ([]int, error) {
	res, err := client.Get(baseURL + "/healthz")
	if err != nil {
		return nil, fmt.Errorf("swmload: health probe: %w", err)
	}
	io.Copy(io.Discard, res.Body) //nolint:errcheck // drain for keep-alive
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("swmload: fleet unhealthy: healthz = %d", res.StatusCode)
	}
	res, err = client.Get(baseURL + "/v1/sessions")
	if err != nil {
		return nil, fmt.Errorf("swmload: session discovery: %w", err)
	}
	defer res.Body.Close()
	var list swmhttp.SessionsResult
	if err := json.NewDecoder(res.Body).Decode(&list); err != nil {
		return nil, fmt.Errorf("swmload: decode session list: %w", err)
	}
	var running []int
	for _, s := range list.Sessions {
		if s.State == "running" {
			running = append(running, s.ID)
		}
	}
	if len(running) == 0 {
		return nil, fmt.Errorf("swmload: no running sessions in a fleet of %d", len(list.Sessions))
	}
	return running, nil
}

var queryTargets = []string{
	swmproto.TargetStats, swmproto.TargetTrace,
	swmproto.TargetClients, swmproto.TargetDesktop,
}

// plan is the request matrix built once per run: every request the mix
// can choose is prebuilt to raw HTTP/1.1 bytes and shared read-only
// across workers, so the hot loop writes bytes it never constructs.
type plan struct {
	addr    string
	queries [][][]byte // [session index][index into queryTargets]
	execs   [][]byte
}

func buildPlan(cfg Config, sessions []int) (*plan, error) {
	u, err := url.Parse(cfg.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("swmload: bad base URL: %w", err)
	}
	if u.Scheme != "http" || u.Host == "" {
		return nil, fmt.Errorf("swmload: base URL must be http://host:port, got %q", cfg.BaseURL)
	}
	execBody, _ := json.Marshal(swmhttp.ExecBody{Command: cfg.ExecCommand})
	p := &plan{
		addr:    u.Host,
		queries: make([][][]byte, len(sessions)),
		execs:   make([][]byte, len(sessions)),
	}
	for i, id := range sessions {
		p.queries[i] = make([][]byte, len(queryTargets))
		for j, target := range queryTargets {
			p.queries[i][j] = []byte(fmt.Sprintf(
				"GET /v1/sessions/%d/%s HTTP/1.1\r\nHost: %s\r\n\r\n", id, target, u.Host))
		}
		p.execs[i] = []byte(fmt.Sprintf(
			"POST /v1/sessions/%d/exec HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
			id, u.Host, len(execBody), execBody))
	}
	return p, nil
}

// envPrefix is the byte prefix every envelope response starts with:
// the encoder writes fields in a fixed order, so the common case is
// classifiable with a prefix scan instead of a JSON decode.
var envPrefix = []byte(fmt.Sprintf(`{"v":%d,"id":`, swmproto.Version))

// fastEnvelope classifies a response body without a decoder: matched
// reports whether body carries the canonical envelope prefix, ok the
// envelope's ok field. Anything unmatched (or !ok, where the error
// code matters) falls back to the full decoder — correctness never
// rides on the fast path, only the happy path's cost does.
func fastEnvelope(body []byte) (ok, matched bool) {
	if !bytes.HasPrefix(body, envPrefix) {
		return false, false
	}
	rest := body[len(envPrefix):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	if j == 0 {
		return false, false
	}
	rest = rest[j:]
	switch {
	case bytes.HasPrefix(rest, []byte(`,"ok":true`)):
		return true, true
	case bytes.HasPrefix(rest, []byte(`,"ok":false`)):
		return false, true
	}
	return false, false
}

// worker is one load client: n requests over its own keep-alive
// connection, each chosen by the worker's seeded rng, timed
// individually. The rng consumption order (session, then target) is
// part of the determinism contract — both draws happen on every
// iteration, exec or not.
func worker(cfg Config, p *plan, seed int64, n int) workerResult {
	rng := rand.New(rand.NewSource(seed))
	r := workerResult{
		latencies: make([]time.Duration, 0, n),
		byTarget:  make(map[string]int),
		byCode:    make(map[string]int),
	}
	lc := &loadConn{addr: p.addr, buf: make([]byte, 0, 4096)}
	defer lc.close()
	for i := 0; i < n; i++ {
		si := rng.Intn(len(p.queries))
		ti := rng.Intn(len(queryTargets))
		exec := cfg.ExecEvery > 0 && (i+1)%cfg.ExecEvery == 0

		begin := time.Now()
		req := p.queries[si][ti]
		if exec {
			r.byTarget["exec"]++
			req = p.execs[si]
		} else {
			r.byTarget[queryTargets[ti]]++
		}
		_, body, closing, err := lc.roundTrip(req, time.Now().Add(cfg.Timeout))
		if err != nil {
			r.errors++
			r.byCode["transport"]++
			continue
		}
		r.latencies = append(r.latencies, time.Since(begin))
		if ok, matched := fastEnvelope(body); !matched {
			var resp swmproto.Response
			if json.Unmarshal(body, &resp) != nil {
				r.errors++
				r.byCode["malformed"]++
			} else if !resp.OK {
				r.errors++
				r.byCode[resp.Code]++
			}
		} else if !ok {
			// Error envelope: decode fully for the protocol code.
			var resp swmproto.Response
			if json.Unmarshal(body, &resp) != nil {
				r.errors++
				r.byCode["malformed"]++
			} else {
				r.errors++
				r.byCode[resp.Code]++
			}
		}
		if closing {
			lc.close()
		}
	}
	return r
}

// percentile is nearest-rank over an ascending slice.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p/100*float64(len(sorted)-1) + 0.5)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
