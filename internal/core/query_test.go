package core

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/clients"
	"repro/internal/icccm"
	"repro/internal/swmproto"
	"repro/internal/xproto"
	"repro/internal/xserver"
)

// queryClient attaches a swmproto client to the WM's display.
func queryClient(t *testing.T, s *xserver.Server, wm *WM) *swmproto.Client {
	t.Helper()
	conn := s.Connect("swmcmd")
	cl, err := swmproto.NewClient(conn, wm.screens[0].Root)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// roundTrip pumps one request through the WM and returns the reply.
func roundTrip(t *testing.T, wm *WM, cl *swmproto.Client, req swmproto.Request) swmproto.Response {
	t.Helper()
	id, err := cl.Send(req)
	if err != nil {
		t.Fatal(err)
	}
	wm.Pump()
	resp, ok, err := cl.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("no reply after pump")
	}
	if resp.V != swmproto.Version || resp.ID != id {
		t.Fatalf("reply header = %+v, want v=%d id=%d", resp, swmproto.Version, id)
	}
	return resp
}

func TestQueryStats(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	launch(t, s, wm, clients.Config{Instance: "xterm", Class: "XTerm", Width: 200, Height: 100})
	cl := queryClient(t, s, wm)

	resp := roundTrip(t, wm, cl, swmproto.Request{Op: swmproto.OpQuery, Target: swmproto.TargetStats})
	if !resp.OK {
		t.Fatalf("stats query failed: %s", resp.Error)
	}
	var stats swmproto.StatsResult
	if err := json.Unmarshal(resp.Result, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Metrics.Counters["wm.managed"] != 1 {
		t.Errorf("wm.managed = %d, want 1", stats.Metrics.Counters["wm.managed"])
	}
	if stats.Metrics.Counters["xreq.total"] == 0 {
		t.Error("no X requests counted")
	}
	if stats.Metrics.Histograms["pump.ns"].Count == 0 {
		t.Error("no pump cycles observed")
	}
}

// TestQueryStatsAdoptionCounters checks the decoration prototype
// cache's hit/miss/eviction counters all the way out the wire: they
// must be visible to `swmcmd -query stats`, not just to in-process
// readers.
func TestQueryStatsAdoptionCounters(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	// Two same-class clients: the first misses the prototype cache and
	// populates it, the second hits.
	launch(t, s, wm, clients.Config{Instance: "xterm", Class: "XTerm", Width: 200, Height: 100})
	launch(t, s, wm, clients.Config{Instance: "xterm2", Class: "XTerm", Width: 200, Height: 100})
	cl := queryClient(t, s, wm)

	resp := roundTrip(t, wm, cl, swmproto.Request{Op: swmproto.OpQuery, Target: swmproto.TargetStats})
	if !resp.OK {
		t.Fatalf("stats query failed: %s", resp.Error)
	}
	var stats swmproto.StatsResult
	if err := json.Unmarshal(resp.Result, &stats); err != nil {
		t.Fatal(err)
	}
	if n := stats.Metrics.Counters["deco.proto_misses"]; n < 1 {
		t.Errorf("deco.proto_misses = %d, want at least 1", n)
	}
	if n := stats.Metrics.Counters["deco.proto_hits"]; n < 1 {
		t.Errorf("deco.proto_hits = %d, want at least 1", n)
	}
	if _, ok := stats.Metrics.Counters["deco.proto_evictions"]; !ok {
		t.Error("deco.proto_evictions not registered in stats")
	}
	// Sanity: the in-process Stats view agrees with the wire view.
	st := wm.Stats()
	if int64(st.ProtoHits) != stats.Metrics.Counters["deco.proto_hits"] ||
		int64(st.ProtoMisses) != stats.Metrics.Counters["deco.proto_misses"] {
		t.Errorf("Stats() proto counters (%d/%d) disagree with wire (%d/%d)",
			st.ProtoHits, st.ProtoMisses,
			stats.Metrics.Counters["deco.proto_hits"], stats.Metrics.Counters["deco.proto_misses"])
	}
}

// TestQueryStatsLockContention checks the writer-lock telemetry all the
// way out the wire: the xserver.lock_contention counter and
// xserver.lock_wait_ns histogram must reach `swmcmd -query stats`, and
// wm.Stats() must agree with the wire view. The test drives the same
// LockObserver hook the lock-acquire slow path fires (generating real
// contention deterministically needs in-package access to Server.mu;
// xserver's TestLockObserverFiresOnContention covers that half).
func TestQueryStatsLockContention(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	cl := queryClient(t, s, wm)

	var lo xserver.LockObserver = wm.metrics
	lo.LockWait(2500)
	lo.LockWait(900)

	resp := roundTrip(t, wm, cl, swmproto.Request{Op: swmproto.OpQuery, Target: swmproto.TargetStats})
	if !resp.OK {
		t.Fatalf("stats query failed: %s", resp.Error)
	}
	var stats swmproto.StatsResult
	if err := json.Unmarshal(resp.Result, &stats); err != nil {
		t.Fatal(err)
	}
	if n := stats.Metrics.Counters["xserver.lock_contention"]; n != 2 {
		t.Errorf("xserver.lock_contention = %d, want 2", n)
	}
	h, ok := stats.Metrics.Histograms["xserver.lock_wait_ns"]
	if !ok {
		t.Fatal("xserver.lock_wait_ns not registered in stats")
	}
	if h.Count != 2 || h.Sum != 3400 {
		t.Errorf("lock_wait_ns count/sum = %d/%d, want 2/3400", h.Count, h.Sum)
	}
	if st := wm.Stats(); int64(st.LockContention) != stats.Metrics.Counters["xserver.lock_contention"] {
		t.Errorf("Stats().LockContention = %d disagrees with wire %d",
			st.LockContention, stats.Metrics.Counters["xserver.lock_contention"])
	}
}

func TestQueryTrace(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	wm.Trace().Enable()
	launch(t, s, wm, clients.Config{Instance: "xterm", Class: "XTerm", Width: 200, Height: 100})
	wm.PanTo(wm.screens[0], 128, 64)
	cl := queryClient(t, s, wm)

	resp := roundTrip(t, wm, cl, swmproto.Request{Op: swmproto.OpQuery, Target: swmproto.TargetTrace})
	if !resp.OK {
		t.Fatalf("trace query failed: %s", resp.Error)
	}
	var trace swmproto.TraceResult
	if err := json.Unmarshal(resp.Result, &trace); err != nil {
		t.Fatal(err)
	}
	if !trace.Enabled || trace.Cap != traceCap {
		t.Errorf("trace enabled=%v cap=%d", trace.Enabled, trace.Cap)
	}
	var sawManage, sawPan, sawRequest bool
	for _, e := range trace.Entries {
		switch e.Op.String() {
		case "manage":
			sawManage = true
		case "pan":
			sawPan = true
		}
		if e.Kind == 0 { // KindRequest marshals as "request"; decoded zero value
			sawRequest = true
		}
	}
	if !sawManage || !sawPan || !sawRequest {
		t.Errorf("trace missing events: manage=%v pan=%v request=%v (%d entries)",
			sawManage, sawPan, sawRequest, len(trace.Entries))
	}
}

func TestQueryClients(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	app, c := launch(t, s, wm, clients.Config{
		Instance: "xterm", Class: "XTerm", Name: "shell", Width: 300, Height: 200,
	})
	if err := wm.Iconify(c); err != nil {
		t.Fatal(err)
	}
	cl := queryClient(t, s, wm)

	resp := roundTrip(t, wm, cl, swmproto.Request{Op: swmproto.OpQuery, Target: swmproto.TargetClients})
	if !resp.OK {
		t.Fatalf("clients query failed: %s", resp.Error)
	}
	var res swmproto.ClientsResult
	if err := json.Unmarshal(resp.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Clients) != 1 {
		t.Fatalf("clients = %+v", res.Clients)
	}
	got := res.Clients[0]
	if got.Window != uint32(app.Win) || got.Name != "shell" || got.Class != "XTerm" ||
		got.Instance != "xterm" || got.State != "iconic" {
		t.Errorf("client info = %+v", got)
	}
}

func TestQueryDesktop(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	wm.PanTo(wm.screens[0], 256, 128)
	cl := queryClient(t, s, wm)

	resp := roundTrip(t, wm, cl, swmproto.Request{Op: swmproto.OpQuery, Target: swmproto.TargetDesktop})
	if !resp.OK {
		t.Fatalf("desktop query failed: %s", resp.Error)
	}
	var res swmproto.DesktopResult
	if err := json.Unmarshal(resp.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Screens) != 1 {
		t.Fatalf("screens = %+v", res.Screens)
	}
	d := res.Screens[0]
	if !d.Enabled || d.PanX != 256 || d.PanY != 128 {
		t.Errorf("desktop = %+v", d)
	}
	if d.Width <= d.ViewWidth || d.Height <= d.ViewHeight {
		t.Errorf("desktop not larger than view: %+v", d)
	}
}

func TestExecRequest(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	_, c := launch(t, s, wm, clients.Config{
		Instance: "xterm", Class: "XTerm", Width: 300, Height: 200,
	})
	cl := queryClient(t, s, wm)

	resp := roundTrip(t, wm, cl, swmproto.Request{Op: swmproto.OpExec, Command: "f.iconify(XTerm)"})
	if !resp.OK {
		t.Fatalf("exec failed: %s", resp.Error)
	}
	if c.State != xproto.IconicState {
		t.Error("exec did not iconify the client")
	}

	// A failing command reports its error in-band, unlike the legacy
	// one-way protocol.
	resp = roundTrip(t, wm, cl, swmproto.Request{Op: swmproto.OpExec, Command: "f.bogus()"})
	if resp.OK || resp.Error == "" {
		t.Errorf("bogus exec = %+v", resp)
	}
}

func TestQueryBadVersionAnswered(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	cl := queryClient(t, s, wm)

	// Hand-craft a request with the wrong version; swm must still reply
	// on the named window rather than going silent.
	conn := s.Connect("badver")
	data, err := json.Marshal(swmproto.Request{
		V: swmproto.Version + 1, ID: 42, Op: swmproto.OpQuery,
		Target: swmproto.TargetStats, ReplyWindow: uint32(cl.ReplyWindow()),
	})
	if err != nil {
		t.Fatal(err)
	}
	err = conn.ChangeProperty(wm.screens[0].Root, conn.InternAtom(swmproto.QueryProperty),
		conn.InternAtom("STRING"), 8, xproto.PropModeReplace, data)
	if err != nil {
		t.Fatal(err)
	}
	wm.Pump()
	resp, ok, err := cl.Poll()
	if err != nil || !ok {
		t.Fatalf("no reply to bad-version request: ok=%v err=%v", ok, err)
	}
	if resp.OK || !strings.Contains(resp.Error, "version") {
		t.Errorf("response = %+v", resp)
	}
}

func TestQueryUnknownTarget(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	cl := queryClient(t, s, wm)
	resp := roundTrip(t, wm, cl, swmproto.Request{Op: swmproto.OpQuery, Target: "nonsense"})
	if resp.OK || !strings.Contains(resp.Error, "unknown query target") {
		t.Errorf("response = %+v", resp)
	}
}

func TestQueryPropertyConsumed(t *testing.T) {
	s, wm := newWM(t, Options{VirtualDesktop: true})
	cl := queryClient(t, s, wm)
	roundTrip(t, wm, cl, swmproto.Request{Op: swmproto.OpQuery, Target: swmproto.TargetDesktop})
	conn := s.Connect("checker")
	if _, ok, _ := conn.GetProperty(wm.screens[0].Root, conn.InternAtom(swmproto.QueryProperty)); ok {
		t.Error("SWM_QUERY not consumed after serving")
	}
}

// TestExecContextClientUnderPointer pins the exec context for the
// functions that read the context client without taking a window
// target: with the pointer over client b, an exec of each acts on b,
// and not on a or on no client. A context resolved only for
// window-target functions would leave f.setlabel and f.setbindings
// relabelling every client, f.menu with no client and
// f.sendtodesktop failing.
func TestExecContextClientUnderPointer(t *testing.T) {
	for _, tc := range []struct {
		command string
		check   func(t *testing.T, wm *WM, a, b *Client)
	}{
		{"f.setlabel(nail=BUSY)", func(t *testing.T, wm *WM, a, b *Client) {
			if got := b.frame.Find("nail").Label(); got != "BUSY" {
				t.Errorf("b's nail label = %q, want BUSY", got)
			}
			if got := a.frame.Find("nail").Label(); got == "BUSY" {
				t.Errorf("a's nail label = %q: the label went to a client not under the pointer", got)
			}
		}},
		{"f.setbindings(nail=<Btn1>:f.iconify)", func(t *testing.T, wm *WM, a, b *Client) {
			if got := b.frame.Find("nail").Bindings.Lookup(xproto.ButtonPress, xproto.Button1, xproto.NoSymbol, 0); len(got) != 1 || got[0].Name != "f.iconify" {
				t.Errorf("b's nail Btn1 runs %v, want f.iconify", got)
			}
			if got := a.frame.Find("nail").Bindings.Lookup(xproto.ButtonPress, xproto.Button1, xproto.NoSymbol, 0); len(got) == 1 && got[0].Name == "f.iconify" {
				t.Error("a's nail was rebound: the bindings went to a client not under the pointer")
			}
		}},
		{"f.menu(windowMenu)", func(t *testing.T, wm *WM, a, b *Client) {
			menus := wm.screens[0].OpenMenus()
			if len(menus) != 1 || menus[0].ctxClient != b {
				t.Errorf("open menus %v, want one with context client b", menus)
			}
		}},
		{"f.sendtodesktop(1)", func(t *testing.T, wm *WM, a, b *Client) {
			if wm.DesktopOf(b) != 1 || wm.DesktopOf(a) != 0 {
				t.Errorf("desktops a=%d b=%d, want a=0 b=1", wm.DesktopOf(a), wm.DesktopOf(b))
			}
		}},
	} {
		t.Run(tc.command, func(t *testing.T) {
			s, wm := newWM(t, Options{VirtualDesktop: true})
			// Desktop 1 exists for f.sendtodesktop(1).
			if err := wm.SelectDesktop(wm.screens[0], 1); err != nil {
				t.Fatal(err)
			}
			if err := wm.SelectDesktop(wm.screens[0], 0); err != nil {
				t.Fatal(err)
			}
			_, a := launch(t, s, wm, clients.Config{Instance: "a", Class: "XTerm", Width: 200, Height: 150,
				NormalHints: &icccm.NormalHints{Flags: icccm.USPosition, X: 50, Y: 50}})
			appB, b := launch(t, s, wm, clients.Config{Instance: "b", Class: "XTerm", Width: 200, Height: 150,
				NormalHints: &icccm.NormalHints{Flags: icccm.USPosition, X: 500, Y: 400}})
			rx, ry, _, err := wm.conn.TranslateCoordinates(appB.Win, wm.screens[0].Root, 10, 10)
			if err != nil {
				t.Fatal(err)
			}
			s.FakeMotion(rx, ry)
			wm.Pump()
			if c := wm.clientUnderPointer(); c != b {
				t.Fatalf("client under pointer = %v, want b", c)
			}
			if resp := wm.ServeProto(swmproto.Request{Op: swmproto.OpExec, Command: tc.command}); !resp.OK {
				t.Fatalf("exec %s = %+v", tc.command, resp)
			}
			tc.check(t, wm, a, b)
		})
	}
}
