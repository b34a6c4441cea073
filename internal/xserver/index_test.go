package xserver

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/xproto"
)

// countObserver is a test LockObserver: atomic counters only, like the
// real obs-backed one.
type countObserver struct {
	n      atomic.Int64
	waitNs atomic.Int64
}

func (o *countObserver) LockWait(ns int64) {
	o.n.Add(1)
	o.waitNs.Add(ns)
}

// TestLockObserverFiresOnContention proves writeLock's slow path
// reports to the observer: the test holds Server.mu directly (legal
// only in tests — the lockorder analyzer skips _test.go files) while a
// second goroutine maps a window, which must wait on the lock and fire
// LockWait when it finally gets in.
func TestLockObserverFiresOnContention(t *testing.T) {
	s, c := newTestServer(t)
	w := mustCreate(t, c, s.Screens()[0].Root, xproto.Rect{X: 0, Y: 0, Width: 10, Height: 10})
	obs := &countObserver{}
	s.SetLockObserver(obs)

	deadline := time.Now().Add(10 * time.Second)
	for obs.n.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("observer never fired despite a held Server.mu")
		}
		s.mu.Lock()
		done := make(chan struct{})
		go func() {
			// MapWindow takes Server.mu through writeLock.
			c.MapWindow(w)
			c.UnmapWindow(w)
			close(done)
		}()
		// Yield so the goroutine reaches the contended acquire while the
		// lock is held; one round is normally enough, the outer loop
		// retries if the scheduler didn't cooperate.
		time.Sleep(2 * time.Millisecond)
		s.mu.Unlock()
		<-done
	}
	if obs.waitNs.Load() <= 0 {
		t.Errorf("observer fired %d times but recorded %d ns total wait",
			obs.n.Load(), obs.waitNs.Load())
	}
}

// TestIndexGrowth creates 1,000 windows, growing the slot table many
// times over, then destroys every seventh. Every live id must resolve
// and every destroyed one must answer BadWindow.
func TestIndexGrowth(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	r := xproto.Rect{X: 0, Y: 0, Width: 10, Height: 10}
	before := s.NumWindows()

	var ids []xproto.XID
	for len(ids) < 1000 {
		ids = append(ids, mustCreate(t, c, root, r))
	}
	dead := make(map[xproto.XID]bool)
	for i, id := range ids {
		if i%7 == 0 {
			if err := c.DestroyWindow(id); err != nil {
				t.Fatalf("DestroyWindow(0x%x): %v", uint32(id), err)
			}
			dead[id] = true
		}
	}
	for _, id := range ids {
		_, err := c.GetGeometry(id)
		var xe *xproto.XError
		switch {
		case dead[id] && (!errors.As(err, &xe) || xe.Code != xproto.BadWindow):
			t.Errorf("GetGeometry(destroyed 0x%x) = %v, want BadWindow", uint32(id), err)
		case !dead[id] && err != nil:
			t.Errorf("GetGeometry(0x%x): %v", uint32(id), err)
		}
	}
	if got, want := s.NumWindows(), before+len(ids)-len(dead); got != want {
		t.Errorf("NumWindows = %d, want %d", got, want)
	}
	// Doubling keeps the table within twice the ids issued.
	if n, issued := len(*s.wins.Load()), int(s.nextID-baseXID); n > 2*issued+64 {
		t.Errorf("slot table has %d slots for %d ids issued", n, issued)
	}
}

// TestConcurrentStructuralWriters runs eight connections through the
// exclusive-lock paths — create, map, raise, SelectInput, unmap and
// destroy under one shared parent — while four readers walk the same
// parent lock-free. Readers must only ever see each child once and
// never under another parent; afterwards the parent's children must be exactly
// the surviving windows and NumWindows must count them.
func TestConcurrentStructuralWriters(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	r := xproto.Rect{X: 0, Y: 0, Width: 10, Height: 10}
	parent := mustCreate(t, c, root, xproto.Rect{X: 5, Y: 5, Width: 200, Height: 200})
	before := s.NumWindows()

	const writers, rounds = 8, 30
	survivors := make([][]xproto.XID, writers)
	var wg sync.WaitGroup
	var stop atomic.Bool
	errs := make(chan error, writers+4)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cc := s.Connect(fmt.Sprintf("writer-%d", g))
			for round := 0; round < rounds; round++ {
				id, err := cc.CreateWindow(parent, r, 0, WindowAttributes{})
				if err == nil {
					err = cc.MapWindow(id)
				}
				if err == nil {
					err = cc.RaiseWindow(id)
				}
				if err == nil {
					err = cc.SelectInput(id, xproto.StructureNotifyMask)
				}
				if err == nil && round%3 != 0 {
					err = cc.UnmapWindow(id)
					if err == nil {
						err = cc.DestroyWindow(id)
					}
				} else if err == nil {
					survivors[g] = append(survivors[g], id)
				}
				if err != nil {
					errs <- fmt.Errorf("writer %d round %d: %w", g, round, err)
					return
				}
			}
		}(g)
	}
	var rg sync.WaitGroup
	for g := 0; g < 4; g++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for !stop.Load() {
				_, _, kids, err := c.QueryTree(parent)
				if err != nil {
					errs <- fmt.Errorf("QueryTree(parent): %w", err)
					return
				}
				seen := make(map[xproto.XID]bool, len(kids))
				for _, k := range kids {
					if seen[k] {
						errs <- fmt.Errorf("child 0x%x listed twice", uint32(k))
						return
					}
					seen[k] = true
					// A child may be destroyed under the reader: BadWindow
					// is the only acceptable error. Destroy marks a window
					// before it detaches it, so a live answer always names
					// the parent, never None.
					if _, p, _, err := c.QueryTree(k); err == nil && p != parent {
						errs <- fmt.Errorf("child 0x%x has parent 0x%x", uint32(k), uint32(p))
						return
					} else if !isBadWindow(err) {
						errs <- fmt.Errorf("QueryTree(child): %w", err)
						return
					}
					if _, _, _, err := c.TranslateCoordinates(k, root, 1, 1); !isBadWindow(err) {
						errs <- fmt.Errorf("TranslateCoordinates: %w", err)
						return
					}
					if _, err := c.GetGeometry(k); !isBadWindow(err) {
						errs <- fmt.Errorf("GetGeometry: %w", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	rg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	want := make(map[xproto.XID]bool)
	for _, ids := range survivors {
		for _, id := range ids {
			want[id] = true
		}
	}
	_, _, kids, err := c.QueryTree(parent)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[xproto.XID]bool, len(kids))
	for _, k := range kids {
		if got[k] {
			t.Errorf("child 0x%x listed twice", uint32(k))
		}
		got[k] = true
		if !want[k] {
			t.Errorf("child 0x%x is not a surviving window", uint32(k))
		}
	}
	for id := range want {
		if !got[id] {
			t.Errorf("survivor 0x%x missing from the parent's children", uint32(id))
		}
		if _, p, _, err := c.QueryTree(id); err != nil || p != parent {
			t.Errorf("survivor 0x%x: parent 0x%x, err %v", uint32(id), uint32(p), err)
		}
	}
	if got, want := s.NumWindows(), before+len(want); got != want {
		t.Errorf("NumWindows = %d, want %d", got, want)
	}
}

// TestConcurrentQueryTreeDestroy races lock-free QueryTree readers
// against DestroyWindow on one window at a time. A reader must see the
// window under its parent or get BadWindow: destroy marks a window
// before it detaches it, so a live answer with parent None (a reader
// between the two stores) is never possible.
func TestConcurrentQueryTreeDestroy(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	parent := mustCreate(t, c, root, xproto.Rect{Width: 200, Height: 200})
	r := xproto.Rect{Width: 10, Height: 10}
	var target atomic.Uint32
	var stop atomic.Bool
	var orphans atomic.Int64
	readers := max(1, runtime.GOMAXPROCS(0)-1)
	errs := make(chan error, readers) // each reader sends at most once
	var rg sync.WaitGroup
	for g := 0; g < readers; g++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for !stop.Load() {
				id := xproto.XID(target.Load())
				if id == xproto.None {
					continue
				}
				_, p, _, err := c.QueryTree(id)
				switch {
				case err == nil && p == xproto.None:
					orphans.Add(1)
				case err == nil && p != parent:
					errs <- fmt.Errorf("window 0x%x has parent 0x%x", uint32(id), uint32(p))
					return
				case !isBadWindow(err):
					errs <- fmt.Errorf("QueryTree: %w", err)
					return
				}
			}
		}()
	}
	for round := 0; round < 20000; round++ {
		id := mustCreate(t, c, parent, r)
		target.Store(uint32(id))
		if err := c.DestroyWindow(id); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	rg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := orphans.Load(); n > 0 {
		t.Errorf("QueryTree returned a live window with parent None %d times", n)
	}
}

// isBadWindow reports whether err is nil or a BadWindow error — the
// outcomes a reader may see for a window destroyed under it.
func isBadWindow(err error) bool {
	var xe *xproto.XError
	return err == nil || errors.As(err, &xe) && xe.Code == xproto.BadWindow
}

// TestConcurrentPropertyChurn hammers one window with 64 goroutines of
// interleaved ChangeProperty/GetProperty. Run under -race this checks
// the per-property cell lock: readers must never observe a torn value,
// and every read must see a value some writer actually stored.
func TestConcurrentPropertyChurn(t *testing.T) {
	s, c := newTestServer(t)
	w := mustCreate(t, c, s.Screens()[0].Root, xproto.Rect{X: 0, Y: 0, Width: 10, Height: 10})
	prop := c.InternAtom("CHURN")
	typ := c.InternAtom("STRING")

	const goroutines = 64
	const rounds = 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				payload := []byte(fmt.Sprintf("writer-%02d", g))
				for i := 0; i < rounds; i++ {
					if err := c.ChangeProperty(w, prop, typ, 8, xproto.PropModeReplace, payload); err != nil {
						errs <- fmt.Errorf("ChangeProperty: %w", err)
						return
					}
				}
			} else {
				for i := 0; i < rounds; i++ {
					p, ok, err := c.GetProperty(w, prop)
					if err != nil {
						errs <- fmt.Errorf("GetProperty: %w", err)
						return
					}
					if ok && (len(p.Data) != 9 || string(p.Data[:7]) != "writer-") {
						errs <- fmt.Errorf("torn property read: %q", p.Data)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentPropertyAppendDelete races the combine paths, which
// read the old value and write the new one in one critical section.
// Part 1: 8 writers each append 64 bytes of their own, one per request,
// while readers poll. Writer g's k-th byte is g<<5 | k%32, so the bytes
// of one writer, in order, spell out its sequence. Every read must show
// each writer's sequence up to some point, with no length falling below
// an earlier read's; the final value holds all 512 bytes. Part 2: two
// goroutines delete the same set property at once, and exactly one
// PropertyNotify(Deleted) is queued.
func TestConcurrentPropertyAppendDelete(t *testing.T) {
	s, c := newTestServer(t)
	w := mustCreate(t, c, s.Screens()[0].Root, xproto.Rect{X: 0, Y: 0, Width: 10, Height: 10})
	prop := c.InternAtom("APPENDED")
	typ := c.InternAtom("STRING")

	const writers, perWriter = 8, 64
	seq := func(g, k int) byte { return byte(g<<5 | k%32) }
	// check verifies that data holds, per writer, a prefix of its
	// sequence in order.
	check := func(data []byte) error {
		var next [writers]int
		for _, b := range data {
			g := int(b >> 5)
			if next[g] >= perWriter || b != seq(g, next[g]) {
				return fmt.Errorf("writer %d byte %d out of order in %v", g, next[g], data)
			}
			next[g]++
		}
		return nil
	}

	var writersWG, readersWG sync.WaitGroup
	var done atomic.Bool
	errs := make(chan error, writers+2)
	for g := 0; g < writers; g++ {
		writersWG.Add(1)
		go func(g int) {
			defer writersWG.Done()
			for k := 0; k < perWriter; k++ {
				if err := c.ChangeProperty(w, prop, typ, 8, xproto.PropModeAppend, []byte{seq(g, k)}); err != nil {
					errs <- fmt.Errorf("ChangeProperty: %w", err)
					return
				}
			}
		}(g)
	}
	for r := 0; r < 2; r++ {
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			last := 0
			for !done.Load() {
				p, _, err := c.GetProperty(w, prop)
				if err != nil {
					errs <- fmt.Errorf("GetProperty: %w", err)
					return
				}
				if len(p.Data) < last {
					errs <- fmt.Errorf("property length fell from %d to %d", last, len(p.Data))
					return
				}
				last = len(p.Data)
				if err := check(p.Data); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	writersWG.Wait()
	done.Store(true)
	readersWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	p, ok, err := c.GetProperty(w, prop)
	if err != nil || !ok || len(p.Data) != writers*perWriter {
		t.Fatalf("final property: ok=%v err=%v len=%d, want %d bytes", ok, err, len(p.Data), writers*perWriter)
	}
	if err := check(p.Data); err != nil {
		t.Error(err)
	}

	watcher := s.Connect("watcher")
	if err := watcher.SelectInput(w, xproto.PropertyChangeMask); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 50; round++ {
		if err := c.ChangeProperty(w, prop, typ, 8, xproto.PropModeReplace, []byte("x")); err != nil {
			t.Fatal(err)
		}
		drain(watcher)
		var start, deleters sync.WaitGroup
		start.Add(1)
		for d := 0; d < 2; d++ {
			deleters.Add(1)
			go func() {
				defer deleters.Done()
				start.Wait()
				if err := c.DeleteProperty(w, prop); err != nil {
					t.Errorf("DeleteProperty: %v", err)
				}
			}()
		}
		start.Done()
		deleters.Wait()
		deleted := 0
		for _, ev := range drain(watcher) {
			if ev.Type == xproto.PropertyNotify && ev.PropertyState == xproto.PropertyDeleted {
				deleted++
			}
		}
		if deleted != 1 {
			t.Fatalf("round %d: %d PropertyNotify(Deleted) events, want exactly 1", round, deleted)
		}
	}
}

// TestConcurrentReparentVsQueryTree pits structural writers against the
// lock-free QueryTree read path: windows bounce between two parents
// while readers walk the tree. Under -race this exercises the
// copy-on-write children slices and the reparent publication order.
func TestConcurrentReparentVsQueryTree(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	r := xproto.Rect{X: 0, Y: 0, Width: 10, Height: 10}
	pa := mustCreate(t, c, root, r)
	pb := mustCreate(t, c, root, r)
	const kids = 8
	wins := make([]xproto.XID, kids)
	for i := range wins {
		wins[i] = mustCreate(t, c, pa, r)
	}

	var wg sync.WaitGroup
	errs := make(chan error, kids+4)
	for i, w := range wins {
		wg.Add(1)
		go func(i int, w xproto.XID) {
			defer wg.Done()
			for round := 0; round < 40; round++ {
				dst := pa
				if (round+i)%2 == 0 {
					dst = pb
				}
				if err := c.ReparentWindow(w, dst, i, i); err != nil {
					errs <- fmt.Errorf("ReparentWindow: %w", err)
					return
				}
			}
		}(i, w)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 100; round++ {
				na, nb := 0, 0
				if _, _, ch, err := c.QueryTree(pa); err == nil {
					na = len(ch)
				} else {
					errs <- fmt.Errorf("QueryTree(pa): %w", err)
					return
				}
				if _, _, ch, err := c.QueryTree(pb); err == nil {
					nb = len(ch)
				} else {
					errs <- fmt.Errorf("QueryTree(pb): %w", err)
					return
				}
				// Weakly consistent cut: each parent individually must
				// never report more children than exist in total.
				if na > kids || nb > kids {
					errs <- fmt.Errorf("impossible child counts: pa=%d pb=%d", na, nb)
					return
				}
				for _, w := range wins {
					if _, parent, _, err := c.QueryTree(w); err != nil {
						errs <- fmt.Errorf("QueryTree(win): %w", err)
						return
					} else if parent != pa && parent != pb {
						errs <- fmt.Errorf("window 0x%x has parent 0x%x, want pa or pb", uint32(w), uint32(parent))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentConnectClose cycles connections while other clients
// keep issuing requests — the lifecycle path (Connect registers in the
// conn table, Close escalates to the exclusive lock and reaps
// owner-attributed state) racing the lock-free request paths.
func TestConcurrentConnectClose(t *testing.T) {
	s, c := newTestServer(t)
	root := s.Screens()[0].Root
	r := xproto.Rect{X: 0, Y: 0, Width: 10, Height: 10}
	w := mustCreate(t, c, root, r)
	before := s.NumWindows()

	var wg sync.WaitGroup
	errs := make(chan error, 17)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 25; round++ {
				cc := s.Connect(fmt.Sprintf("churn-%d-%d", g, round))
				id, err := cc.CreateWindow(root, r, 0, WindowAttributes{})
				if err != nil {
					errs <- fmt.Errorf("CreateWindow: %w", err)
					return
				}
				if err := cc.MapWindow(id); err != nil {
					errs <- fmt.Errorf("MapWindow: %w", err)
					return
				}
				cc.Close()
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 200; round++ {
			if _, err := c.GetGeometry(w); err != nil {
				errs <- fmt.Errorf("GetGeometry: %w", err)
				return
			}
			if _, _, _, err := c.QueryTree(root); err != nil {
				errs <- fmt.Errorf("QueryTree(root): %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Every closed connection's windows are reaped.
	if got := s.NumWindows(); got != before {
		t.Errorf("NumWindows = %d after churn, want %d", got, before)
	}
	c.Close()
}
