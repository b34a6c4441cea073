package perfbench

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/clients"
	"repro/internal/fleet"
	"repro/internal/swmhttp"
	"repro/internal/swmload"
)

// loadSummaries is the side channel between the load workloads and the
// BENCH report: testing.Benchmark only carries ns/op and allocs, but a
// traffic run is characterized by its percentiles and error rate, so
// the workload records its final swmload.Summary here and cmd/swmbench
// embeds it in the report.
var (
	loadMu        sync.Mutex
	loadSummaries = make(map[string]swmload.Summary)
)

// RecordLoadSummary stores a workload's final traffic summary for the
// report.
func RecordLoadSummary(name string, s swmload.Summary) {
	loadMu.Lock()
	defer loadMu.Unlock()
	loadSummaries[name] = s
}

// LoadSummaries returns a copy of every recorded traffic summary.
func LoadSummaries() map[string]swmload.Summary {
	loadMu.Lock()
	defer loadMu.Unlock()
	out := make(map[string]swmload.Summary, len(loadSummaries))
	for k, v := range loadSummaries {
		out[k] = v
	}
	return out
}

// FleetHTTPLoad measures the network service layer end to end: a fleet
// of sessions behind the swmhttp transport on a real loopback listener,
// hammered by loadClients closed-loop swmload workers issuing requests
// queries+execs total. The fleet and listener are built once outside
// the timer; one op is one complete load run (seeded by the iteration
// index, so repeated iterations replay distinct but reproducible
// request streams).
//
// The tracked shape runs 128 workers, not the 1,000 the BENCH_9-era
// workload used: closed-loop concurrency past the host's service
// capacity measures queue depth (Little's law puts the p50 at
// concurrency/throughput regardless of how fast the serving path is),
// so the old shape could only ever report scheduling backlog. 2×
// sessions keeps every lane contended while the percentiles the
// LoadBudgets enforce describe the serving path itself.
//
// The workload is blocking on correctness as well as on its wall
// budget: any failed request — transport error, malformed envelope,
// !ok response — fails the benchmark rather than shading a percentile.
func FleetHTTPLoad(sessions, loadClients, requests int) func(b *testing.B) {
	return func(b *testing.B) {
		m, err := fleet.New(fleet.Config{Sessions: sessions})
		if err != nil {
			b.Fatal(err)
		}
		defer m.Close()
		m.StartAll()
		if st := m.Stats(); st.Live != sessions {
			b.Fatalf("fleet came up degraded: %+v", st)
		}
		// Two managed clients per session so queries return real state.
		if err := manageClients(m, 2, "XTerm"); err != nil {
			b.Fatal(err)
		}

		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		srv := &http.Server{Handler: swmhttp.New(m, swmhttp.Config{}).Handler()}
		defer srv.Close()
		go srv.Serve(l) //nolint:errcheck // closed by the deferred Close

		b.ReportAllocs()
		b.ResetTimer()
		var last swmload.Summary
		for i := 0; i < b.N; i++ {
			sum, err := swmload.Run(swmload.Config{
				BaseURL:   "http://" + l.Addr().String(),
				Clients:   loadClients,
				Requests:  requests,
				Seed:      int64(i + 1),
				ExecEvery: 10,
			})
			if err != nil {
				b.Fatal(err)
			}
			if sum.Errors > 0 {
				b.Fatalf("load run had %d errors: %v", sum.Errors, sum.ByCode)
			}
			last = sum
		}
		b.StopTimer()
		RecordLoadSummary("swmload-fleet-http", last)
	}
}

// nullResponseWriter is an http.ResponseWriter that discards the body
// and reuses one header map, so HTTPStatsQuery charges the handler
// stack for its own allocations and nothing else.
type nullResponseWriter struct {
	h http.Header
	n int
}

func (w *nullResponseWriter) Header() http.Header         { return w.h }
func (w *nullResponseWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
func (w *nullResponseWriter) WriteHeader(int)             {}

// HTTPStatsQuery measures one warm stats query through the complete
// in-process serving path — middleware, mux routing, the session's
// snapshot cache, pooled envelope encode — with the socket factored
// out. This is the op the snapshot-cache work exists for, so its alloc
// budget is blocking and tight: a warm hit is an atomic load plus a
// pooled buffer write, and any re-introduction of per-request
// rendering (registry iteration, reflective marshal, envelope
// allocation) shows up as tens of extra allocs immediately.
func HTTPStatsQuery() func(b *testing.B) {
	return func(b *testing.B) {
		m, err := fleet.New(fleet.Config{Sessions: 1})
		if err != nil {
			b.Fatal(err)
		}
		defer m.Close()
		m.StartAll()
		srv := m.Session(0).Server()
		for j := 0; j < 2; j++ {
			if _, err := clients.Launch(srv, clients.Config{
				Instance: fmt.Sprintf("c%d", j), Class: "XTerm",
				Width: 120, Height: 90, X: 8 * j, Y: 6 * j,
			}); err != nil {
				b.Fatal(err)
			}
		}
		m.Pump(0)

		h := swmhttp.New(m, swmhttp.Config{}).Handler()
		req := httptest.NewRequest(http.MethodGet, "/v1/sessions/0/stats", nil)
		w := &nullResponseWriter{h: make(http.Header)}
		h.ServeHTTP(w, req) // populate the snapshot cache
		if w.n == 0 {
			b.Fatal("warm-up request produced no body")
		}

		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.ServeHTTP(w, req)
		}
	}
}
