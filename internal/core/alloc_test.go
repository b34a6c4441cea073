package core

import (
	"fmt"
	"testing"

	"repro/internal/clients"
	"repro/internal/swmproto"
	"repro/internal/templates"
	"repro/internal/xserver"
)

// Allocation regression guards for the hot paths: pan, move, manage
// cycle and stats render. Timing benchmarks (cmd/swmbench,
// BENCH_*.json) are advisory because wall-clock depends on the
// machine; allocation counts are deterministic, so these run as plain
// tests and fail the ordinary test suite when a change reintroduces
// O(all-miniatures) rebuild work on the hot paths.

// TestPanStepAllocBudget bounds one pan step (PanBy + pump) against a
// desktop with 25 clients. Before the incremental panner this cost ~50
// allocs/op (every miniature destroyed and recreated); now the sync is
// a no-op diff and the step allocates (nearly) nothing.
func TestPanStepAllocBudget(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true, EnablePanner: true})
	scr := wm.Screens()[0]
	for i := 0; i < 25; i++ {
		launch(t, s, wm, clients.Config{
			Instance: fmt.Sprintf("pan%d", i), Class: "Bench",
			Width: 200, Height: 150, X: 10 + i, Y: 10 + i,
		})
	}
	wm.Pump()

	i := 0
	avg := testing.AllocsPerRun(200, func() {
		i++
		wm.PanTo(scr, (i%8)*256+(i%2), (i%5)*128)
		wm.Pump()
	})
	const budget = 8 // pre-change: ~50
	if avg > budget {
		t.Errorf("pan step = %.1f allocs/op, budget %d — did the panner go back to full rebuilds?", avg, budget)
	}
}

// TestMoveStepAllocBudget bounds one interactive move step (move +
// pump) with the panner mirroring 25 clients. Pre-change: ~76
// allocs/op; the budget enforces at least the 2× reduction the
// incremental sync bought.
func TestMoveStepAllocBudget(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true, EnablePanner: true})
	for i := 0; i < 25; i++ {
		launch(t, s, wm, clients.Config{
			Instance: fmt.Sprintf("mv%d", i), Class: "Bench",
			Width: 200, Height: 150, X: 10 + i, Y: 10 + i,
		})
	}
	wm.Pump()
	c := wm.Clients()[0]

	i := 0
	avg := testing.AllocsPerRun(200, func() {
		i++
		wm.MoveClientTo(c, 100+i%500, 100+i%400)
		wm.Pump()
	})
	const budget = 38 // pre-change: 76; ≥2× reduction enforced
	if avg > budget {
		t.Errorf("move step = %.1f allocs/op, budget %d", avg, budget)
	}
}

// TestManageCycleAllocBudget bounds a full client lifetime: launch,
// manage, withdraw, close. Before the adoption fast path this was
// dominated by decoration building and ran ~1,400 allocs/op; with the
// prototype cache the warm cycle only clones a cached decoration. The
// budget enforces that warm manages keep hitting the cache and never
// go back to resource queries plus a full Build. The lock-free xserver
// raised the structural-write cost slightly (copy-on-write child and
// mask tables buy lock-free readers; measured 148 warm), still ~10x
// under the cache-miss cliff the budget exists to catch.
func TestManageCycleAllocBudget(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true, EnablePanner: true})
	for i := 0; i < 10; i++ {
		launch(t, s, wm, clients.Config{
			Instance: fmt.Sprintf("bg%d", i), Class: "Bench",
			Width: 200, Height: 150, X: 10 + i, Y: 10 + i,
		})
	}
	wm.Pump()

	i := 0
	avg := testing.AllocsPerRun(50, func() {
		i++
		app, err := clients.Launch(s, clients.Config{
			Instance: fmt.Sprintf("cycle%d", i), Class: "Bench",
			Width: 200, Height: 150, X: 40, Y: 40,
		})
		if err != nil {
			t.Fatal(err)
		}
		wm.Pump()
		if err := app.Withdraw(); err != nil {
			t.Fatal(err)
		}
		wm.Pump()
		app.Close()
		wm.Pump()
	})
	const budget = 170 // measured 148 warm; pre-cache: ~1,400
	if avg > budget {
		t.Errorf("manage cycle = %.1f allocs/op, budget %d — are warm manages missing the prototype cache?", avg, budget)
	}
}

// statsWM is the stats-render fixture: a WM managing 2 clients, the
// shape of one fleet session under the HTTP workloads.
func statsWM(t testing.TB) *WM {
	s, wm := newWM(t, Options{VirtualDesktop: true, EnablePanner: true})
	for i := 0; i < 2; i++ {
		launch(t, s, wm, clients.Config{
			Instance: fmt.Sprintf("st%d", i), Class: "Bench",
			Width: 200, Height: 150, X: 10 + i, Y: 10 + i,
		})
	}
	wm.Pump()
	return wm
}

var statsReq = swmproto.Request{Op: swmproto.OpQuery, Target: swmproto.TargetStats}

// TestStatsRenderAllocBudget bounds one stats render (ServeProto of
// the stats target) on a WM with 2 clients, the fleet's cache-miss
// render. The render streams the registry's name-sorted walk, which
// copies nothing in steady state, into one buffer sized from the
// previous render: the visitor and the payload. Before that it built a
// snapshot of maps and sorted every name twice, at 38 allocs/op, and
// then copied the three instrument slices per walk, at 5; a return to
// per-render sorting, maps or copies fails here.
func TestStatsRenderAllocBudget(t *testing.T) {
	wm := statsWM(t)
	avg := testing.AllocsPerRun(200, func() {
		if resp := wm.ServeProto(statsReq); !resp.OK {
			t.Fatalf("stats: %s", resp.Error)
		}
	})
	const budget = 2 // with per-walk slice copies: 5; with maps: 38
	if avg > budget {
		t.Errorf("stats render = %.1f allocs/op, budget %d — is the render sorting or building maps again?", avg, budget)
	}
}

// BenchmarkStatsRender times the render TestStatsRenderAllocBudget
// counts.
func BenchmarkStatsRender(b *testing.B) {
	wm := statsWM(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		statsSink = wm.ServeProto(statsReq)
	}
}

var statsSink swmproto.Response

// TestConstructionAllocBudget bounds one session bring-up: NewServer
// plus New on a shared database, as a fleet starts
// each session. What every session has in common (the counter names,
// the function table, the predefined atoms) is built once per process,
// and the WM's counters are registered in one batch. Built per session,
// the same bring-up cost 275 allocs; it measures 54 now (60 under the
// race detector). Rebuilding any one of those tables per session adds
// at least 7 and fails here.
func TestConstructionAllocBudget(t *testing.T) {
	db, err := templates.Load(templates.Default)
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		wm, err := New(xserver.NewServer(), Options{DB: db})
		if err != nil {
			t.Fatal(err)
		}
		wm.Conn().Close()
	})
	budget := 64.0 // measured 54; with per-session tables: 275
	if raceEnabled {
		budget = 72 // measured 60
	}
	if avg > budget {
		t.Errorf("session bring-up = %.0f allocs, budget %.0f — is a per-process table being rebuilt per session?", avg, budget)
	}
}
