package xserver

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/xproto"
)

// failureSequence runs n GetGeometry requests against a fresh
// connection with the given policy and returns the indices that failed.
func failureSequence(t *testing.T, policy FaultPolicy, n int) []int {
	t.Helper()
	s := NewServer()
	conn := s.Connect("probe")
	win, err := conn.CreateWindow(s.Screens()[0].Root,
		xproto.Rect{Width: 50, Height: 50}, 0, WindowAttributes{})
	if err != nil {
		t.Fatalf("CreateWindow: %v", err)
	}
	conn.SetFaultPolicy(&policy)
	var failed []int
	for i := 0; i < n; i++ {
		if _, err := conn.GetGeometry(win); err != nil {
			failed = append(failed, i)
		}
	}
	return failed
}

func TestFaultPolicySeededRateIsDeterministic(t *testing.T) {
	policy := FaultPolicy{Seed: 42, Rate: 0.3, Code: xproto.BadWindow}
	first := failureSequence(t, policy, 200)
	second := failureSequence(t, policy, 200)
	if len(first) == 0 {
		t.Fatal("rate 0.3 over 200 requests injected nothing")
	}
	if len(first) != len(second) {
		t.Fatalf("same seed produced %d then %d failures", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("failure sequences diverge at %d: %d vs %d", i, first[i], second[i])
		}
	}
	// A different seed must (overwhelmingly) produce a different schedule.
	other := failureSequence(t, FaultPolicy{Seed: 43, Rate: 0.3}, 200)
	same := len(other) == len(first)
	if same {
		for i := range first {
			if first[i] != other[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical failure sequences")
	}
}

func TestFaultPolicyEveryN(t *testing.T) {
	failed := failureSequence(t, FaultPolicy{EveryN: 3}, 12)
	want := []int{2, 5, 8, 11}
	if len(failed) != len(want) {
		t.Fatalf("EveryN=3 over 12 requests failed at %v, want %v", failed, want)
	}
	for i := range want {
		if failed[i] != want[i] {
			t.Fatalf("EveryN=3 failed at %v, want %v", failed, want)
		}
	}
}

func TestFaultPolicyTimesCap(t *testing.T) {
	failed := failureSequence(t, FaultPolicy{EveryN: 2, Times: 3}, 50)
	if len(failed) != 3 {
		t.Fatalf("Times=3 injected %d faults", len(failed))
	}
}

func TestFaultPolicyOpsFilterAndCount(t *testing.T) {
	s := NewServer()
	conn := s.Connect("probe")
	win, err := conn.CreateWindow(s.Screens()[0].Root,
		xproto.Rect{Width: 50, Height: 50}, 0, WindowAttributes{})
	if err != nil {
		t.Fatalf("CreateWindow: %v", err)
	}
	conn.SetFaultPolicy(&FaultPolicy{EveryN: 1, Code: xproto.BadMatch, Ops: []xproto.Major{xproto.MajorGetGeometry}})

	// Filtered-out requests never fault.
	if err := conn.MapWindow(win); err != nil {
		t.Fatalf("MapWindow should not fault: %v", err)
	}
	err = nil
	if _, err = conn.GetGeometry(win); err == nil {
		t.Fatal("GetGeometry should fault with EveryN=1")
	}
	if !errors.Is(err, xproto.ErrBadMatch) {
		t.Errorf("injected error %v is not BadMatch", err)
	}
	var xe *xproto.XError
	if !errors.As(err, &xe) || xe.Major != xproto.MajorGetGeometry || xe.Resource != win {
		t.Errorf("injected error carries %+v", xe)
	}
	if got := conn.FaultCount(); got != 1 {
		t.Errorf("FaultCount = %d, want 1", got)
	}
	// Removing the policy stops injection and resets the count.
	conn.SetFaultPolicy(nil)
	if _, err := conn.GetGeometry(win); err != nil {
		t.Errorf("GetGeometry after removing policy: %v", err)
	}
	if got := conn.FaultCount(); got != 0 {
		t.Errorf("FaultCount after removal = %d, want 0", got)
	}
}

func TestFaultPolicyKillTarget(t *testing.T) {
	s := NewServer()
	wmConn := s.Connect("wm")
	clConn := s.Connect("client")
	win, err := clConn.CreateWindow(s.Screens()[0].Root,
		xproto.Rect{Width: 50, Height: 50}, 0, WindowAttributes{})
	if err != nil {
		t.Fatalf("CreateWindow: %v", err)
	}
	wmConn.SetFaultPolicy(&FaultPolicy{EveryN: 1, Times: 1, KillTarget: true})

	if err := wmConn.MapWindow(win); err == nil {
		t.Fatal("expected an injected fault")
	}
	// The client's window really is gone now: the death race is real,
	// not just reported.
	if _, err := clConn.GetGeometry(win); !errors.Is(err, xproto.ErrBadWindow) {
		t.Errorf("target window survived KillTarget: err=%v", err)
	}
	// The WM's own furniture is never killed: roots are immune.
	wmConn.SetFaultPolicy(&FaultPolicy{EveryN: 1, Times: 1, KillTarget: true})
	root := s.Screens()[0].Root
	if err := wmConn.MapWindow(root); err == nil {
		t.Fatal("expected an injected fault on the root request")
	}
	if _, err := wmConn.GetGeometry(root); err != nil {
		t.Errorf("root window was harmed by KillTarget: %v", err)
	}
}

func TestErrorHandlerSeesEachErrorOnce(t *testing.T) {
	s := NewServer()
	conn := s.Connect("probe")
	var codes []xproto.ErrorCode
	conn.SetErrorHandler(func(xe *xproto.XError) { codes = append(codes, xe.Code) })

	// A genuine error (no fault policy): BadWindow for a bogus id.
	if err := conn.MapWindow(xproto.XID(0xdeadbeef)); err == nil {
		t.Fatal("MapWindow of a bogus id should fail")
	}
	// An injected error.
	conn.SetFaultPolicy(&FaultPolicy{EveryN: 1, Times: 1, Code: xproto.BadAccess})
	root := s.Screens()[0].Root
	if _, err := conn.GetGeometry(root); err == nil {
		t.Fatal("expected an injected fault")
	}
	if len(codes) != 2 || codes[0] != xproto.BadWindow || codes[1] != xproto.BadAccess {
		t.Errorf("handler observed %v, want [BadWindow BadAccess]", codes)
	}
}

// rateWorkload issues n requests on c, cycling through lock-free,
// shared-lock and exclusive-lock request kinds, and returns the indices
// that failed.
func rateWorkload(c *Conn, win, root xproto.XID, n int) []int {
	name := c.InternAtom("WM_NAME")
	var failed []int
	for i := 0; i < n; i++ {
		var err error
		switch i % 5 {
		case 0:
			_, err = c.GetGeometry(win)
		case 1:
			err = c.MoveWindow(win, i, i)
		case 2:
			err = c.RaiseWindow(win)
		case 3:
			err = c.ChangeProperty(win, name, name, 8, xproto.PropModeReplace, []byte("x"))
		case 4:
			err = c.ReparentWindow(win, root, i, i)
		}
		if err != nil {
			failed = append(failed, i)
		}
	}
	return failed
}

// TestFaultPolicyRateUnderConcurrentTraffic pins that a seeded Rate
// schedule on one connection yields the same failure sequence whether
// or not another connection is hammering the lock-free and shared-lock
// paths at the same time: the schedule steps per connection, under its
// own leaf lock, and requests keep their ordinary lock scopes.
func TestFaultPolicyRateUnderConcurrentTraffic(t *testing.T) {
	const n = 400
	policy := FaultPolicy{Seed: 7, Rate: 0.25, Code: xproto.BadAccess}
	run := func(concurrent bool) ([]int, int) {
		s := NewServer()
		root := s.Screens()[0].Root
		a, b := s.Connect("a"), s.Connect("b")
		win := mustCreate(t, a, root, xproto.Rect{Width: 40, Height: 40})
		other := mustCreate(t, b, root, xproto.Rect{Width: 40, Height: 40})
		a.SetFaultPolicy(&policy)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		if concurrent {
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						b.GetGeometry(win)
						b.QueryTree(root)
						b.MoveWindow(other, i%50, i%50)
						b.MapWindow(other)
						b.TranslateCoordinates(win, root, 1, 1)
					}
				}()
			}
		}
		failed := rateWorkload(a, win, root, n)
		close(stop)
		wg.Wait()
		return failed, a.FaultCount()
	}
	want, wantCount := run(false)
	if len(want) == 0 {
		t.Fatal("rate 0.25 over 400 requests injected nothing")
	}
	got, gotCount := run(true)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("failure sequence under concurrent traffic = %v, want %v", got, want)
	}
	if gotCount != wantCount || gotCount != len(want) {
		t.Errorf("FaultCount = %d (serial %d), want %d", gotCount, wantCount, len(want))
	}
}

// TestFaultPolicyKillTargetFromExclusiveRequests fires KillTarget from
// requests that take the server lock exclusively themselves: the gate
// runs before the request's own locking, so the kill is an ordinary
// destroy and cannot deadlock.
func TestFaultPolicyKillTargetFromExclusiveRequests(t *testing.T) {
	cases := []struct {
		name  string
		issue func(wm *Conn, target, root xproto.XID) error
	}{
		{"ReparentWindow", func(wm *Conn, target, root xproto.XID) error {
			err := wm.ReparentWindow(target, root, 5, 5)
			// The request after the kill sees the death race as a
			// genuine BadWindow, not a second injected fault.
			if after := wm.MapWindow(target); !errors.Is(after, xproto.ErrBadWindow) {
				return fmt.Errorf("request after the kill: err=%v, want BadWindow", after)
			}
			return err
		}},
		{"SendEvent", func(wm *Conn, target, root xproto.XID) error {
			return wm.SendEvent(target, 0, xproto.Event{Type: xproto.ClientMessage})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewServer()
			root := s.Screens()[0].Root
			wm, client := s.Connect("wm"), s.Connect("client")
			target := mustCreate(t, client, root, xproto.Rect{Width: 50, Height: 50})
			wm.SetFaultPolicy(&FaultPolicy{EveryN: 1, Times: 1, Code: xproto.BadAccess, KillTarget: true})

			done := make(chan error, 1)
			go func() { done <- tc.issue(wm, target, root) }()
			var err error
			select {
			case err = <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("KillTarget fault deadlocked")
			}
			if !errors.Is(err, xproto.ErrBadAccess) {
				t.Errorf("err = %v, want the injected BadAccess", err)
			}
			if _, err := client.GetGeometry(target); !errors.Is(err, xproto.ErrBadWindow) {
				t.Errorf("target window survived KillTarget: err=%v", err)
			}
			if got := wm.FaultCount(); got != 1 {
				t.Errorf("FaultCount = %d, want 1", got)
			}
		})
	}
}
