package core

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"os"
	"testing"

	"repro/internal/clients"
	"repro/internal/obs"
	"repro/internal/swmproto"
	"repro/internal/xproto"
	"repro/internal/xserver"
)

// The golden files in testdata pin what a fresh WM (no clients, no
// pump, default options, the shape of a fleet session at start) exposes:
// registry_names.golden lists every instrument Visit enumerates, as
// "kind name" lines in walk order, and fresh_stats.golden is the stats
// payload it renders. Both were captured from the WM that registered
// each counter by name, one at a time; the shared name tables and
// batch registration must reproduce them exactly.

// nameLister records a Visit walk as "kind name" lines.
type nameLister struct{ buf bytes.Buffer }

func (l *nameLister) VisitCounter(name string, _ int64) { fmt.Fprintf(&l.buf, "counter %s\n", name) }
func (l *nameLister) VisitGauge(name string, _ int64)   { fmt.Fprintf(&l.buf, "gauge %s\n", name) }
func (l *nameLister) VisitHistogram(name string, _ *obs.Histogram) {
	fmt.Fprintf(&l.buf, "histogram %s\n", name)
}

func freshWM(t *testing.T) *WM {
	t.Helper()
	wm, err := New(xserver.NewServer(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return wm
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFreshRegistryNamesGolden checks that a fresh WM registers exactly
// the golden instrument names, in the same order for each kind.
func TestFreshRegistryNamesGolden(t *testing.T) {
	var l nameLister
	freshWM(t).Metrics().Visit(&l)
	if want := readGolden(t, "registry_names.golden"); !bytes.Equal(l.buf.Bytes(), want) {
		t.Errorf("fresh WM registry names differ from testdata/registry_names.golden:\ngot:\n%s\nwant:\n%s", l.buf.Bytes(), want)
	}
}

// TestFreshStatsPayloadGolden checks that a fresh WM's stats payload is
// byte-identical to the golden one.
func TestFreshStatsPayloadGolden(t *testing.T) {
	resp := freshWM(t).ServeProto(swmproto.Request{Op: swmproto.OpQuery, Target: swmproto.TargetStats})
	if !resp.OK {
		t.Fatalf("stats: %s", resp.Error)
	}
	if want := readGolden(t, "fresh_stats.golden"); !bytes.Equal(resp.Result, want) {
		t.Errorf("fresh stats payload differs from testdata/fresh_stats.golden:\ngot:  %s\nwant: %s", resp.Result, want)
	}
}

// TestWMCountersTable checks the process-wide counter table newWMMetrics
// registers from: strictly ascending names (what Registry.Counters
// requires), one field per name, and every field a WM reads filled.
func TestWMCountersTable(t *testing.T) {
	names := wmCounters.names
	if len(names) != len(wmCounters.fields) {
		t.Fatalf("%d names but %d fields", len(names), len(wmCounters.fields))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("names not strictly ascending at %d: %q, %q", i, names[i-1], names[i])
		}
	}
	m := newWMMetrics(obs.NewRegistry(), nil)
	for major := xproto.MajorNone + 1; major < xproto.NumMajors; major++ {
		if m.requestsByMajor[major] == nil || m.errsByOp[major] == nil {
			t.Errorf("major %s has no counter", major)
		}
	}
	seen := make(map[*obs.Counter]string)
	for i, f := range wmCounters.fields {
		c := *f(m)
		if c == nil {
			t.Errorf("%s: field left nil", names[i])
		} else if prev, dup := seen[c]; dup {
			t.Errorf("%s and %s share a counter", prev, names[i])
		}
		seen[c] = names[i]
	}
}

// counterDeltas runs f and returns every WM counter that moved across
// it, by how much.
func counterDeltas(wm *WM, f func()) map[string]int64 {
	before := make([]int64, len(wmCounters.names))
	for i, name := range wmCounters.names {
		before[i] = wm.Metrics().Counter(name).Value()
	}
	f()
	moved := make(map[string]int64)
	for i, name := range wmCounters.names {
		if d := wm.Metrics().Counter(name).Value() - before[i]; d != 0 {
			moved[name] = d
		}
	}
	return moved
}

// TestFaultedRequestCountsUnderItsMajor checks per-major accounting on
// both sides of the gate: a request failed by a FaultPolicy is one
// request of its major (the instrument fires before the schedule) and
// one X error of its major and code, and no other counter moves.
func TestFaultedRequestCountsUnderItsMajor(t *testing.T) {
	wm := freshWM(t)
	conn := wm.Conn()
	root := wm.Screens()[0].Root
	win, err := conn.CreateWindow(root, xproto.Rect{Width: 10, Height: 10}, 0, xserver.WindowAttributes{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		major xproto.Major
		send  func() error
	}{
		{xproto.MajorMapWindow, func() error { return conn.MapWindow(win) }},
		{xproto.MajorGetGeometry, func() error { _, err := conn.GetGeometry(root); return err }},
	} {
		conn.SetFaultPolicy(&xserver.FaultPolicy{Ops: []xproto.Major{tc.major}, EveryN: 1, Times: 1, Code: xproto.BadMatch})
		moved := counterDeltas(wm, func() {
			if err := tc.send(); !errors.Is(err, xproto.ErrBadMatch) {
				t.Errorf("%s: err = %v, want the injected BadMatch", tc.major, err)
			}
		})
		conn.SetFaultPolicy(nil)
		want := map[string]int64{
			"xreq.total":                   1,
			"xreq." + tc.major.String():    1,
			"xerr.op." + tc.major.String(): 1,
			"xerr.code.BadMatch":           1,
		}
		if !maps.Equal(moved, want) {
			t.Errorf("%s: counters moved %v, want %v", tc.major, moved, want)
		}
	}
}

// TestManageDeathRaceErrorCountsAsOther checks the error Manage returns
// when a client dies after registration. It names no request, so the
// X error handler counts it under xerr.op.other. Manage returns it to
// the caller rather than reporting it through the connection, so the
// test hands it to the handler itself; the request that actually hit
// the race is counted under its own major during Manage.
func TestManageDeathRaceErrorCountsAsOther(t *testing.T) {
	s, wm := newWM(t, Options{})
	app, err := clients.Launch(s, clients.Config{Instance: "doomed", Class: "XTerm", Width: 100, Height: 100})
	if err != nil {
		t.Fatal(err)
	}
	// The synthetic ConfigureNotify is Manage's first request on the
	// client window after registration.
	wm.Conn().SetFaultPolicy(&xserver.FaultPolicy{
		Ops: []xproto.Major{xproto.MajorSendEvent}, EveryN: 1, Times: 1,
		Code: xproto.BadWindow, KillTarget: true,
	})
	var manageErr error
	moved := counterDeltas(wm, func() {
		var c *Client
		c, manageErr = wm.Manage(app.Win)
		if c != nil {
			t.Error("Manage returned a client that died during setup")
		}
	})
	wm.Conn().SetFaultPolicy(nil)
	if moved["wm.death_races"] != 1 || moved["xerr.op.SendEvent"] != 1 {
		t.Errorf("Manage moved %v, want one death race and one SendEvent error", moved)
	}
	var xe *xproto.XError
	if !errors.As(manageErr, &xe) || xe.Code != xproto.BadWindow || xe.Resource != app.Win {
		t.Fatalf("Manage err = %v, want BadWindow on 0x%x", manageErr, uint32(app.Win))
	}
	moved = counterDeltas(wm, func() { wm.metrics.noteXError(xe) })
	if want := map[string]int64{"xerr.code.BadWindow": 1, "xerr.op.other": 1}; !maps.Equal(moved, want) {
		t.Errorf("handler moved %v, want %v", moved, want)
	}
}
