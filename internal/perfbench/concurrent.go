package perfbench

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/xproto"
	"repro/internal/xserver"
)

// ConcurrentClients measures a contended multi-client storm against ONE
// server, laid out the way swm actually populates a display: a WM
// connection owns a virtual-desktop window under the root, and every
// client's window family lives inside it — a main window with one
// child, plus the icon, palettes, dialogs and torn-off menus a
// long-lived client accumulates (swm keeps an icon window per client,
// and the movable-objects literature describes screens crowded with
// independently movable toplevels). With n=64 that is 448
// sibling windows under the virtual desktop, which is exactly where a
// global server lock hurts: every request from every connection queues
// on one mutex, and the requests that scan the desktop's children
// (coordinate translation during a drag) pay for the whole crowd on
// every call.
//
// The per-connection mix models one drag step per 16 requests: 4 moves
// interleaved with the 4 coordinate translations that reposition the
// drag feedback, then 2 geometry reads, 3 property writes (the WM
// updating its bookkeeping properties), 2 property reads, and 1 tree
// query — property churn, move-storm and query traffic in the
// interaction-density shape of the drag literature.
//
// No request in the mix takes Server.mu — moves and the reads are
// lock-free, and a property request takes only its property's leaf
// lock — so the connections never serialize on the server; the child
// scan costs one load of each rejected sibling's own packed position
// instead of an ancestor walk under the big lock.
//
// One benchmark op = one round = n goroutines × reqsPerRound requests.
func ConcurrentClients(n int) func(b *testing.B) {
	return func(b *testing.B) {
		f := newStorm(n, func(err error) { b.Fatal(err) })
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.run(i)
		}
	}
}

// stormFixture is the populated server plus the per-connection request
// mix, shared between the tracked benchmark and the reduced race-sweep
// test so both exercise exactly the same workload shape.
type stormFixture struct {
	n     int
	round func(k, op int)
}

// run executes one round: every connection issues its reqsPerRound
// requests concurrently, with op varying the drag positions and the
// position-property payload between rounds.
func (f *stormFixture) run(op int) {
	var wg sync.WaitGroup
	wg.Add(f.n)
	for k := 0; k < f.n; k++ {
		go func(k int) {
			defer wg.Done()
			f.round(k, op)
		}(k)
	}
	wg.Wait()
}

func newStorm(n int, fail func(error)) *stormFixture {
	const reqsPerRound = 384 // per connection per op; multiple of the 16-request mix
	s := xserver.NewServer()
	root := s.Screens()[0].Root

	// The WM's virtual desktop: one big window under the root that
	// all client families are created inside, as swm's virtual
	// desktop model prescribes.
	wm := s.Connect("wm")
	vdesk, err := wm.CreateWindow(root, xproto.Rect{X: 0, Y: 0, Width: 4096, Height: 5200}, 0, xserver.WindowAttributes{})
	if err != nil {
		fail(err)
	}
	if err := wm.MapWindow(vdesk); err != nil {
		fail(err)
	}

	conns := make([]*xserver.Conn, n)
	tops := make([]xproto.XID, n)
	kids := make([]xproto.XID, n)
	props := make([]xproto.Atom, n)
	posProps := make([]xproto.Atom, n)
	var typ xproto.Atom
	for k := 0; k < n; k++ {
		c := s.Connect(fmt.Sprintf("storm%d", k))
		conns[k] = c
		top, err := c.CreateWindow(vdesk, xproto.Rect{X: 8 * k, Y: 8 * k, Width: 300, Height: 200}, 1, xserver.WindowAttributes{})
		if err != nil {
			fail(err)
		}
		kid, err := c.CreateWindow(top, xproto.Rect{X: 4, Y: 4, Width: 100, Height: 80}, 0, xserver.WindowAttributes{})
		if err != nil {
			fail(err)
		}
		// The rest of the family: the icon, palettes, dialogs and
		// torn-off menus a long-lived decorated client accumulates,
		// parked in bands below the drag area. They crowd the
		// desktop's child list (what TranslateCoordinates scans)
		// without ever containing the drag point.
		extras := []xproto.Rect{
			{X: 8 * k, Y: 4000, Width: 64, Height: 64},
			{X: 8 * k, Y: 4200, Width: 120, Height: 150},
			{X: 8 * k, Y: 4400, Width: 200, Height: 120},
			{X: 8 * k, Y: 4600, Width: 96, Height: 150},
			{X: 8 * k, Y: 4800, Width: 160, Height: 100},
			{X: 8 * k, Y: 5000, Width: 80, Height: 120},
		}
		wins := []xproto.XID{top, kid}
		for _, r := range extras {
			w, err := c.CreateWindow(vdesk, r, 1, xserver.WindowAttributes{})
			if err != nil {
				fail(err)
			}
			wins = append(wins, w)
		}
		for _, w := range wins {
			if err := c.MapWindow(w); err != nil {
				fail(err)
			}
		}
		tops[k], kids[k] = top, kid
		props[k] = c.InternAtom(fmt.Sprintf("STORM_PROP_%d", k))
		posProps[k] = c.InternAtom(fmt.Sprintf("STORM_POS_%d", k))
		typ = c.InternAtom("STRING")
	}
	payload := []byte("concurrent-clients payload")

	round := func(k, op int) {
		c, top, kid, prop, posProp := conns[k], tops[k], kids[k], props[k], posProps[k]
		// Per-goroutine copy of the changing payload: the position
		// property's value is different on every drag step.
		pos := append([]byte(nil), payload...)
		for r := 0; r < reqsPerRound; r += 16 {
			base := op*reqsPerRound + r
			// One drag step: 4× (move + feedback translation).
			for j := 0; j < 4; j++ {
				if err := c.MoveWindow(top, 8*k+(base+j)%97, 8*k+(base+j)%89); err != nil {
					panic(err)
				}
				if _, _, _, err := c.TranslateCoordinates(kid, vdesk, 1, 1); err != nil {
					panic(err)
				}
			}
			// 2× geometry queries.
			for j := 0; j < 2; j++ {
				if _, err := c.GetGeometry(top); err != nil {
					panic(err)
				}
			}
			// 3× property churn: two steady-state rewrites (state
			// refreshes whose value doesn't change) and one real
			// update (a position property rewritten per drag step).
			for j := 0; j < 2; j++ {
				if err := c.ChangeProperty(top, prop, typ, 8, xproto.PropModeReplace, payload); err != nil {
					panic(err)
				}
			}
			pos[0], pos[1] = byte('a'+base%26), byte('a'+(base/26)%26)
			if err := c.ChangeProperty(top, posProp, typ, 8, xproto.PropModeReplace, pos); err != nil {
				panic(err)
			}
			// 2× property reads.
			for j := 0; j < 2; j++ {
				if _, _, err := c.GetProperty(top, prop); err != nil {
					panic(err)
				}
			}
			// 1× tree query.
			if _, _, _, err := c.QueryTree(top); err != nil {
				panic(err)
			}
		}
	}

	return &stormFixture{n: n, round: round}
}
