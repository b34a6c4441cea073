// Package perfbench defines the performance workloads the repository
// tracks across changes, runnable both as ordinary `go test -bench`
// benchmarks (see bench_test.go at the repo root) and from the
// cmd/swmbench binary, which measures every workload and writes a
// BENCH_<n>.json report.
//
// Each workload is a plain benchmark function so the two entry points
// cannot drift apart. AllocBudgets, WallBudgets and LoadBudgets are the
// blocking regression ceilings; swmbench -delta compares a run with an
// earlier report.
package perfbench

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/baseline/gwm"
	"repro/internal/baseline/twm"
	"repro/internal/clients"
	"repro/internal/core"
	"repro/internal/swmload"
	"repro/internal/templates"
	"repro/internal/xserver"
)

// AllocBudgets are blocking ceilings on allocs/op: a regression that
// undoes the incremental panner or the adoption fast path fails the
// bench job even when timing noise hides it.
// pan-storm and xrdb-query are pinned at zero — the obs layer must
// record metrics without allocating while tracing is disabled, and the
// compiled resource trie must answer warm queries entirely from the
// stack. manage-100-clients got ~20% headroom over its post-change
// measurement (7,371 allocs/op) so scheduler noise cannot flake the
// job while a return to per-client trie recompiles or prototype-cache
// misses (tens of thousands of allocs) still fails loudly; it measures
// 7,965 today (go1.24), 11.5% under the ceiling.
// concurrent-clients-64's ceiling carries ~25% headroom over its
// post-striping measurement (4,802 allocs/op, 4,801 today: a property
// rewrite copies into its cell's existing buffer under the cell's lock
// and allocates nothing); a return to allocate-per-write property
// entries (9,410 allocs/op on the pre-change tree) fails.
// swmload-fleet-http's ceiling was 4.5M allocs/op when the serving
// path rendered and marshalled every response (~170 allocs per HTTP
// round-trip, client and server combined, the BENCH_9 number); the
// zero-alloc serving path — snapshot-cached payloads, pooled envelope
// encode, a prebuilt-request load client — brings a 20,000-request run
// to ~560k allocs/op (~28 per round-trip), so the ceiling drops to
// 800k (≤40 per request). One reintroduced marshal-decode cycle per
// request (~50 allocs) lands far over it. http-stats-query is the same
// protocol op with the socket factored out: a warm snapshot-cache hit
// through middleware, mux, and pooled envelope write measures 4
// allocs/op, one of them the middleware's status writer, and the
// budget of 20 means even one stray per-request rendering step fails
// the job.
var AllocBudgets = map[string]int64{
	"manage-100-clients":    9000,
	"move-storm":            38,
	"pan-storm":             0,
	"xrdb-query":            0,
	"fleet-1000-sessions":   960_000,
	"concurrent-clients-64": 6000,
	"http-stats-query":      20,
	"swmload-fleet-http":    800_000,
}

// WallBudgets are blocking ceilings on ns/op. Timing is
// environment-sensitive, so almost every workload keeps its wall clock
// advisory — but fleet-1000-sessions exists precisely to pin the
// thousand-session lifecycle to an order of magnitude, and a silent
// slide from seconds to minutes (a scheduler livelock, an accidental
// O(sessions²) sweep) must fail the bench job. The 2.5s ceiling is
// under 10x the median of seven swmbench -check runs, 256ms (IQR
// 246-260ms) on a 2-CPU host at GOMAXPROCS 2, go1.24.
// fleet-1000-sessions gets the same treatment on allocs: measured
// 801,890 allocs/op (median of five runs on a 2-vCPU host, go1.24;
// 10,000 managed clients plus 250 restart-adopts) once each session's
// constant tables were built once per process (1,068,142 before), and
// ~770,900 once the children snapshots stopped carrying a position
// mirror, 19.7% under the 960k ceiling. Rebuilding those tables per
// session (~216 allocs each, ~270k at this scale) fails it, and a
// return to per-session prototype builds or trie recompiles — tens of
// millions of allocs at this scale — fails immediately.
// concurrent-clients-64 pins the 64-connection storm to an order of
// magnitude: measured ~2ms/op median (2-vCPU host, go1.24, -cpu 2)
// with reads, property and geometry writes off the server lock, so the
// 9ms/op ceiling fails a slide of ~4.5x or more (a livelock, a
// per-request sweep of every window). It does not catch a return to
// globally serialized request handling: a prototype that took the
// server lock exclusively in every request measured 7.37ms median on
// the same host and passes. A ceiling derived from medians that fails
// that prototype is open work; the value stays until then.
// swmload-fleet-http pins the whole network service path — 128
// concurrent HTTP clients against a 64-session fleet, 20,000 requests
// per op — to an order of magnitude: the 3.5s ceiling is under 10x
// the median of the same seven runs, 380ms (IQR 378-415ms; 2-CPU host,
// GOMAXPROCS 2, go1.24), so a slide into lock-convoyed or serialized
// request handling fails. The
// workload additionally hard-fails on any request error, so the
// percentile numbers it records (Report.Load) always describe an
// error-free run.
var WallBudgets = map[string]float64{
	"fleet-1000-sessions":   2.5e9, // 2.5s; median 256ms
	"concurrent-clients-64": 9e6,   // 9ms; measured ~2ms
	"swmload-fleet-http":    3.5e9, // 3.5s; median 380ms
}

// LoadBudget is a blocking bar on a load workload's recorded traffic
// summary — the numbers a ns/op cannot express. MinQPS is a floor on
// sustained throughput, MaxP99 a ceiling on tail latency; either side
// failing means the serving path regressed in a way the alloc counters
// may not see (a lock convoy, a lane stall, a cache that stopped
// hitting).
type LoadBudget struct {
	MinQPS float64
	MaxP99 time.Duration
}

// LoadBudgets are enforced by swmbench -check against the summaries
// the load workloads record. swmload-fleet-http recorded 25.9k req/s
// with p99 14.2ms and 554,869 allocs/run in BENCH_10 (up from ~7k req/s
// before the snapshot cache); the floor of 25k and the 30ms p99
// ceiling leave room for CI hardware while a return to
// render-per-request throughput (well under 10k req/s) still fails.
var LoadBudgets = map[string]LoadBudget{
	"swmload-fleet-http": {MinQPS: 25000, MaxP99: 30 * time.Millisecond},
}

// Workload pairs a stable name (the key used in reports and the budget
// maps) with its benchmark body.
type Workload struct {
	Name  string
	Bench func(b *testing.B)
}

// Workloads returns every tracked workload in report order.
func Workloads() []Workload {
	return []Workload{
		{Name: "manage-100-clients", Bench: ManageClients(100)},
		{Name: "restart-adopt-200", Bench: RestartAdopt(200)},
		{Name: "xrdb-query", Bench: XrdbQuery},
		{Name: "move-storm", Bench: MoveStorm},
		{Name: "pan-storm", Bench: PanStorm},
		{Name: "pan-storm-traced", Bench: PanStormTraced},
		{Name: "fleet-1000-sessions", Bench: FleetSessions(1000, 10)},
		{Name: "concurrent-clients-64", Bench: ConcurrentClients(64)},
		{Name: "http-stats-query", Bench: HTTPStatsQuery()},
		{Name: "swmload-fleet-http", Bench: FleetHTTPLoad(64, 128, 20000)},
		{Name: "wm-comparison/manage-25-twm", Bench: manage25(newTwmPump)},
		{Name: "wm-comparison/manage-25-swm", Bench: manage25(newSwmPump)},
		{Name: "wm-comparison/manage-25-gwm", Bench: manage25(newGwmPump)},
	}
}

// Result is one measured workload.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Report is the BENCH_<n>.json document.
type Report struct {
	GoVersion string `json:"go_version"`
	// The host the report was measured on: wall-clock figures from
	// different hosts compare only alongside these. CPUModel is empty
	// where /proc/cpuinfo is absent.
	NumCPU       int                `json:"num_cpu"`
	GOMAXPROCS   int                `json:"gomaxprocs"`
	CPUModel     string             `json:"cpu_model,omitempty"`
	Workloads    []Result           `json:"workloads"`
	AllocBudgets map[string]int64   `json:"alloc_budgets"`
	WallBudgets  map[string]float64 `json:"wall_budgets"`
	// Load carries the traffic summaries (latency percentiles, error
	// rate, request mix) the load workloads record via
	// RecordLoadSummary — numbers a ns/op cannot express.
	Load map[string]swmload.Summary `json:"load,omitempty"`
}

// CPUModel returns the first "model name" value of a /proc/cpuinfo
// listing, or "" when it has none.
func CPUModel(cpuinfo []byte) string {
	for _, line := range strings.Split(string(cpuinfo), "\n") {
		key, val, ok := strings.Cut(line, ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return ""
}

// Run measures every workload with the standard library's benchmark
// driver and returns the results in report order.
func Run() []Result {
	out := make([]Result, 0, len(Workloads()))
	for _, w := range Workloads() {
		// Settle the runtime between workloads: the fleet-scale ones
		// churn hundreds of MB and thousands of goroutines, and on
		// small hosts the leftover GC debt taxes whatever runs next —
		// the latency-budgeted load workload most visibly.
		runtime.GC()
		runtime.Gosched()
		r := testing.Benchmark(w.Bench)
		out = append(out, Result{
			Name:        w.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(max(r.N, 1)),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	return out
}

// newPannerWM builds the swm configuration the storm workloads run
// against: Virtual Desktop plus panner (the subsystem the incremental
// damage work targets).
func newPannerWM(b *testing.B, s *xserver.Server) *core.WM {
	b.Helper()
	db, err := templates.Load(templates.OpenLook)
	if err != nil {
		b.Fatal(err)
	}
	wm, err := core.New(s, core.Options{DB: db, VirtualDesktop: true, EnablePanner: true})
	if err != nil {
		b.Fatal(err)
	}
	return wm
}

// launchN starts n standard bench clients and pumps once so they are
// all managed.
func launchN(b *testing.B, s *xserver.Server, pump func() int, n int) {
	b.Helper()
	for i := 0; i < n; i++ {
		if _, err := clients.Launch(s, clients.Config{
			Instance: fmt.Sprintf("bench%d", i), Class: "Bench",
			Width: 200, Height: 150, X: 10 + i, Y: 10 + i,
		}); err != nil {
			b.Fatal(err)
		}
	}
	pump()
}

// ManageClients measures launching n clients and managing them in one
// event-pump burst — the session-restore shape. Server and WM setup
// happen outside the timer; the measured region is launchN: the n
// client launches and the pump that manages all n windows.
func ManageClients(n int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := xserver.NewServer()
			wm := newPannerWM(b, s)
			b.StartTimer()
			launchN(b, s, wm.Pump, n)
			b.StopTimer()
			wm.Shutdown()
		}
	}
}

// RestartAdopt measures a WM restart against n pre-existing mapped
// clients: the clients are launched with no WM running (their maps are
// not redirected), then the measured region is core.New itself, whose
// QueryTree adoption sweep manages them one by one in tree order on
// the WM's goroutine.
func RestartAdopt(n int) func(b *testing.B) {
	return func(b *testing.B) {
		db, err := templates.Load(templates.OpenLook)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := xserver.NewServer()
			for j := 0; j < n; j++ {
				if _, err := clients.Launch(s, clients.Config{
					Instance: fmt.Sprintf("bench%d", j), Class: "Bench",
					Width: 200, Height: 150, X: 10 + j, Y: 10 + j,
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			wm, err := core.New(s, core.Options{DB: db, VirtualDesktop: true, EnablePanner: true})
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			// The panner's own Virtual Desktop window is managed too,
			// so the count is n bench clients plus one.
			if got := len(wm.Clients()); got < n {
				b.Fatalf("adopted %d clients, want at least %d", got, n)
			}
			wm.Shutdown()
		}
	}
}

// XrdbQuery measures one warm resource lookup against the OpenLook
// template — the question objects.Build asks dozens of times per
// decoration. The first query compiles the trie outside the timed
// region; after that the answer must come entirely from the stack
// (alloc budget zero).
func XrdbQuery(b *testing.B) {
	db, err := templates.Load(templates.OpenLook)
	if err != nil {
		b.Fatal(err)
	}
	names := []string{"swm", "panel", "openLook", "resizeCorners"}
	classes := []string{"Swm", "Panel", "OpenLook", "ResizeCorners"}
	if _, ok := db.Query(names, classes); !ok {
		b.Fatalf("warm query %v missed; workload must measure a hit", names)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Query(names, classes)
	}
}

// MoveStorm measures an interactive drag: one client of 25 moved and
// the event queue pumped per op, with the panner mirroring every step.
func MoveStorm(b *testing.B) {
	s := xserver.NewServer()
	wm := newPannerWM(b, s)
	launchN(b, s, wm.Pump, 25)
	c := wm.Clients()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wm.MoveClientTo(c, 100+i%500, 100+i%400)
		wm.Pump()
	}
}

// PanStorm measures viewport scrolling across a populated desktop: one
// pan plus a pump per op against 25 clients.
func PanStorm(b *testing.B) {
	s := xserver.NewServer()
	wm := newPannerWM(b, s)
	launchN(b, s, wm.Pump, 25)
	scr := wm.Screens()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wm.PanTo(scr, (i%8)*256+(i%2), (i%5)*128)
		wm.Pump()
	}
}

// PanStormTraced is PanStorm with the obs event trace enabled: the
// same workload paying full observability cost. Advisory (no alloc
// budget) — it exists so the price of tracing is measured, not
// guessed, and so the gap between it and pan-storm stays visible in
// every BENCH report.
func PanStormTraced(b *testing.B) {
	s := xserver.NewServer()
	wm := newPannerWM(b, s)
	wm.Trace().Enable()
	launchN(b, s, wm.Pump, 25)
	scr := wm.Screens()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wm.PanTo(scr, (i%8)*256+(i%2), (i%5)*128)
		wm.Pump()
	}
}

// The E1 comparison (paper §8): the same manage-25 workload against
// the three window managers built in this repository.

func newSwmPump(b *testing.B, s *xserver.Server) (func() int, func()) {
	wm := newPannerWM(b, s)
	return wm.Pump, wm.Shutdown
}

func newTwmPump(b *testing.B, s *xserver.Server) (func() int, func()) {
	b.Helper()
	wm, err := twm.New(s, nil)
	if err != nil {
		b.Fatal(err)
	}
	return wm.Pump, wm.Shutdown
}

func newGwmPump(b *testing.B, s *xserver.Server) (func() int, func()) {
	b.Helper()
	wm, err := gwm.New(s, "")
	if err != nil {
		b.Fatal(err)
	}
	return wm.Pump, wm.Shutdown
}

func manage25(mk func(b *testing.B, s *xserver.Server) (func() int, func())) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := xserver.NewServer()
			pump, shutdown := mk(b, s)
			b.StartTimer()
			launchN(b, s, pump, 25)
			b.StopTimer()
			shutdown()
		}
	}
}
