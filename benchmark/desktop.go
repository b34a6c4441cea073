package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/clients"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/templates"
	"repro/internal/xproto"
	"repro/internal/xserver"
)

// The desktop-interactive population: launches and exits hold the
// number of clients within deskClients±deskSpread.
const (
	deskClients = 24
	deskSpread  = 4
	// segmentOps is how many actions one measured segment holds, about
	// a quarter second; see segments for how a run's figures combine
	// them.
	segmentOps = 20000
	// dragSteps is the length of one drag burst, in MoveClientTo+Pump
	// steps, each one op.
	dragSteps = 8
)

type action int

const (
	aManage action = iota
	aDrag
	aPan
	aRetitle
	aIconify
	aExit
	aRestart
	numActions
)

var actionNames = [numActions]string{"manage", "drag", "pan", "retitle", "iconify", "exit", "restart"}

// actionWeights is the per-draw weight of each action, out of 1000. A
// drawn drag runs dragSteps ops, so drags are about three in five ops.
var actionWeights = [numActions]int{aManage: 100, aDrag: 150, aPan: 250, aRetitle: 250, aIconify: 150, aExit: 99, aRestart: 1}

// opLayer is where an action spends its time, as seen from outside.
type opLayer int

const (
	lClient opLayer = iota // the driver's own X calls (clients, xserver)
	lCall                  // the WM API call (core)
	lPump                  // the WM event pump (core, xserver delivery)
	numLayers
)

var layerNames = [numLayers]string{"xserver.client", "core.call", "core.pump"}

// spans times the layers of one op when tracing is on; off, every
// method is a branch.
type spans struct {
	on   bool
	last time.Time
	d    [numLayers]time.Duration
}

func (s *spans) start(t time.Time) {
	if s.on {
		s.last = t
		s.d = [numLayers]time.Duration{}
	}
}

func (s *spans) lap(l opLayer) {
	if s.on {
		now := time.Now()
		s.d[l] += now.Sub(s.last)
		s.last = now
	}
}

// desktop is one display with one WM and its simulated clients.
type desktop struct {
	srv  *xserver.Server
	wm   *core.WM
	opts core.Options
	rng  *rand.Rand

	apps   []*clients.App
	iconic *clients.App
	// icons records, per live client, what the current WM did with its
	// icon: iconStateBuilt once iconified, iconStateRestored once also
	// deiconified. An icon's windows outlive deiconify.
	icons    map[xproto.XID]iconState
	launched int
	titles   []string

	dragApp                *clients.App
	dragLeft, dragX, dragY int
	dragDX, dragDY         int

	// panned is set once the current WM has panned: its first pan
	// creates windows, which the end-of-segment check must expect.
	panned bool

	xreq   *obs.Counter // the current WM's X request counter
	events int          // events the WM pumped, all told
	// protoHits and protoMisses carry the decoration prototype cache
	// counts of WMs a restart replaced.
	protoHits, protoMisses int64
	sp                     spans
}

type iconState int

const (
	iconStateNone iconState = iota
	iconStateBuilt
	iconStateRestored
)

var deskClasses = []string{"XTerm", "XClock", "Emacs"}

// newDesktop brings up the display, an OpenLook WM with Virtual Desktop
// and panner, and the initial clients. rng drives every choice the
// desktop's actions make.
func newDesktop(rng *rand.Rand) (*desktop, error) {
	db, err := templates.Load(templates.OpenLook)
	if err != nil {
		return nil, err
	}
	d := &desktop{
		srv:   xserver.NewServer(),
		opts:  core.Options{DB: db, VirtualDesktop: true, EnablePanner: true},
		rng:   rng,
		icons: map[xproto.XID]iconState{},
	}
	for i := 0; i < 8; i++ {
		d.titles = append(d.titles, "title "+strconv.Itoa(i))
	}
	if d.wm, err = core.New(d.srv, d.opts); err != nil {
		return nil, err
	}
	d.xreq = d.wm.Metrics().Counter("xreq.total")
	for i := 0; i < deskClients; i++ {
		if _, err := d.launch(); err != nil {
			return nil, err
		}
	}
	d.wm.Pump()
	return d, nil
}

func (d *desktop) launch() (*clients.App, error) {
	d.launched++
	cfg := clients.Config{
		Instance: "app" + strconv.Itoa(d.launched),
		Class:    deskClasses[d.launched%len(deskClasses)],
		Width:    160 + d.rng.Intn(240), Height: 120 + d.rng.Intn(180),
		X: d.rng.Intn(1800), Y: d.rng.Intn(1300),
	}
	app, err := clients.Launch(d.srv, cfg)
	if err != nil {
		return nil, err
	}
	d.apps = append(d.apps, app)
	return app, nil
}

func (d *desktop) client(app *clients.App) (*core.Client, error) {
	c, ok := d.wm.ClientOf(app.Win)
	if !ok {
		return nil, fmt.Errorf("client %s is not managed", app.Cfg.Instance)
	}
	return c, nil
}

// exit ends a client the ICCCM way: it withdraws its window, the WM
// unmanages it, and it destroys the window and closes its connection.
// (Destroying a still-managed window instead is a death race the WM
// survives but counts as degraded.)
func (d *desktop) exit(app *clients.App) error {
	err := app.Withdraw()
	d.sp.lap(lClient)
	d.pump()
	if err == nil {
		err = app.Conn.DestroyWindow(app.Win)
	}
	app.Close()
	d.sp.lap(lClient)
	d.pump()
	for i, a := range d.apps {
		if a == app {
			d.apps = append(d.apps[:i], d.apps[i+1:]...)
			break
		}
	}
	delete(d.icons, app.Win)
	if d.iconic == app {
		d.iconic = nil
	}
	if err != nil {
		return err
	}
	if _, ok := d.wm.ClientOf(app.Win); ok {
		return fmt.Errorf("exited client %s is still managed", app.Cfg.Instance)
	}
	return nil
}

// toggleIcon iconifies app, or deiconifies it if it is the iconic one.
func (d *desktop) toggleIcon(app *clients.App) error {
	c, err := d.client(app)
	if err != nil {
		return err
	}
	if d.iconic == app {
		err = d.wm.Deiconify(c)
		d.iconic = nil
		d.icons[app.Win] = iconStateRestored
	} else {
		err = d.wm.Iconify(c)
		d.iconic = app
		if d.icons[app.Win] == iconStateNone {
			d.icons[app.Win] = iconStateBuilt
		}
	}
	d.sp.lap(lCall)
	d.pump()
	if err != nil {
		return err
	}
	want := xproto.NormalState
	if d.iconic == app {
		want = xproto.IconicState
	}
	if c.State != want {
		return fmt.Errorf("client %s in state %d, want %d", app.Cfg.Instance, c.State, want)
	}
	return nil
}

// pick returns a random live client other than the iconic one.
func (d *desktop) pick() *clients.App {
	i := d.rng.Intn(len(d.apps))
	if d.apps[i] == d.iconic {
		i = (i + 1) % len(d.apps)
	}
	return d.apps[i]
}

// next draws the next action and its target; drags continue their
// burst before anything new is drawn.
func (d *desktop) next() action {
	if d.dragLeft > 0 {
		return aDrag
	}
	r := d.rng.Intn(1000)
	a := aManage
	for ; a < numActions; a++ {
		if r < actionWeights[a] {
			break
		}
		r -= actionWeights[a]
	}
	switch a {
	case aManage:
		if len(d.apps) >= deskClients+deskSpread {
			a = aExit
		}
	case aExit:
		if len(d.apps) <= deskClients-deskSpread {
			a = aManage
		}
	case aDrag:
		app := d.pick()
		c, ok := d.wm.ClientOf(app.Win)
		if !ok {
			return aPan
		}
		d.dragApp, d.dragLeft = app, dragSteps
		d.dragX, d.dragY = c.FrameRect.X, c.FrameRect.Y
		d.dragDX, d.dragDY = d.rng.Intn(49)-24, d.rng.Intn(49)-24
	}
	return a
}

// do performs one action; the caller times it and reads d.events.
func (d *desktop) do(a action) error {
	switch a {
	case aManage:
		app, err := d.launch()
		d.sp.lap(lClient)
		if err != nil {
			return err
		}
		d.pump()
		_, err = d.client(app)
		return err
	case aDrag:
		c, err := d.client(d.dragApp)
		if err != nil {
			d.dragLeft = 0
			return err
		}
		d.dragX = clampInt(d.dragX+d.dragDX, 0, 2000)
		d.dragY = clampInt(d.dragY+d.dragDY, 0, 1500)
		d.dragLeft--
		d.wm.MoveClientTo(c, d.dragX, d.dragY)
		d.sp.lap(lCall)
		d.pump()
		return nil
	case aPan:
		scr := d.wm.Screens()[0]
		d.pan(d.rng.Intn(scr.DesktopW), d.rng.Intn(scr.DesktopH))
		return nil
	case aRetitle:
		app := d.pick()
		title := d.titles[d.rng.Intn(len(d.titles))]
		err := app.SetName(title)
		d.sp.lap(lClient)
		d.pump()
		if err != nil {
			return err
		}
		c, err := d.client(app)
		if err == nil && c.Name != title {
			err = fmt.Errorf("client %s titled %q after retitle to %q", app.Cfg.Instance, c.Name, title)
		}
		return err
	case aIconify:
		app := d.iconic
		if app == nil {
			app = d.pick()
		}
		return d.toggleIcon(app)
	case aExit:
		return d.exit(d.pick())
	case aRestart:
		return d.restart()
	}
	return fmt.Errorf("unknown action %d", a)
}

// pump runs the WM's event pump and counts the events it handled.
func (d *desktop) pump() {
	d.events += d.wm.Pump()
	d.sp.lap(lPump)
}

// pan scrolls the Virtual Desktop to (x, y) and pumps.
func (d *desktop) pan(x, y int) {
	d.wm.PanTo(d.wm.Screens()[0], x, y)
	d.panned = true
	d.sp.lap(lCall)
	d.pump()
}

// restart replays f.restart: the WM shuts down, a new one adopts every
// client.
func (d *desktop) restart() error {
	hits, misses := d.protoCounts()
	d.protoHits += hits
	d.protoMisses += misses
	d.wm.Shutdown()
	wm, err := core.New(d.srv, d.opts)
	d.sp.lap(lCall)
	if err != nil {
		return err
	}
	d.wm = wm
	d.panned = false
	d.xreq = wm.Metrics().Counter("xreq.total")
	d.pump()
	// The new WM builds icons only for clients it adopts iconic.
	d.icons = map[xproto.XID]iconState{}
	d.iconic = nil
	for _, app := range d.apps {
		c, err := d.client(app)
		if err != nil {
			return err
		}
		if c.State == xproto.IconicState {
			d.iconic = app
			d.icons[app.Win] = iconStateBuilt
		}
	}
	return nil
}

// check verifies the end state: every live client managed and nothing
// else, no survived X failures, and no window leaked or lost.
func (d *desktop) check(r *report) {
	managed := 0
	for _, c := range d.wm.Clients() {
		if !c.IsInternal() {
			managed++
		}
	}
	r.attempted += 3
	if managed != len(d.apps) {
		r.fail("WM manages %d clients, %d are live", managed, len(d.apps))
	}
	if n := d.wm.Degraded(); n != 0 {
		r.fail("WM survived %d X failures: %v", n, d.wm.LastError())
	}
	want, err := d.reference()
	if err != nil {
		r.fail("reference desktop: %v", err)
	} else if got := d.srv.NumWindows(); got != want {
		r.fail("server holds %d windows; a fresh desktop in the same state holds %d", got, want)
	}
}

// reference builds a fresh display and WM in the state the run ended
// in — the same clients, the same icons, panned or not — and returns
// how many windows its server holds. A long run that leaked or lost
// windows differs from it.
func (d *desktop) reference() (int, error) {
	ref := &desktop{srv: xserver.NewServer(), opts: d.opts, icons: map[xproto.XID]iconState{}}
	var err error
	if ref.wm, err = core.New(ref.srv, d.opts); err != nil {
		return 0, err
	}
	defer ref.wm.Close()
	for _, app := range d.apps {
		a, err := clients.Launch(ref.srv, app.Cfg)
		if err != nil {
			return 0, err
		}
		ref.apps = append(ref.apps, a)
	}
	ref.wm.Pump()
	for i, app := range d.apps {
		toggles := 0
		switch d.icons[app.Win] {
		case iconStateBuilt:
			toggles = 1
		case iconStateRestored:
			toggles = 2
			if d.iconic == app {
				toggles = 3
			}
		}
		for ; toggles > 0; toggles-- {
			if err := ref.toggleIcon(ref.apps[i]); err != nil {
				return 0, err
			}
		}
	}
	if d.panned {
		ref.pan(1, 1)
	}
	return ref.srv.NumWindows(), nil
}

func clampInt(v, lo, hi int) int { return max(lo, min(v, hi)) }

// actionTrace accumulates one action class's traced spans and counts.
type actionTrace struct {
	total    []time.Duration
	layers   [numLayers][]time.Duration
	events   int64
	requests int64
}

// runDesktop measures desktop-interactive: repeated bring-up for
// setup_s, then segments of seeded actions until the run time is
// spent. With trace set, segments alternate between traced and plain.
//
// Every segment runs on a fresh desktop, checked when the segment ends.
// The X server never reuses window ids and closing a connection sweeps
// every id it ever issued, so one long-lived display makes each exit
// slower than the last; fresh displays keep segments comparable.
func runDesktop(_ string, seed int64, seconds float64, trace bool, r *report) error {
	r.record["connections"] = "1"
	rng := rand.New(rand.NewSource(seed))
	d, setups, err := setUp(func() (*desktop, error) { return newDesktop(rand.New(rand.NewSource(seed))) }, (*desktop).close)
	if err != nil {
		return err
	}
	d.rng = rng

	var (
		seg               = make([]time.Duration, 0, segmentOps)
		plain, tracedSegs segments
		heaps             []float64
		manage            = make([]time.Duration, 0, segmentOps)
		manageP50         []float64
		counts            [numActions]int
		traced            [numActions]actionTrace
		unexplained       []time.Duration
		ops               int
		protoHits         int64
		protoMiss         int64
		g0                = readGo()
	)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for s := 0; s < minSegments(trace) || time.Now().Before(deadline); s++ {
		if s > 0 {
			d.check(r)
			d.close()
			start := time.Now()
			if d, err = newDesktop(rng); err != nil {
				return err
			}
			setups = append(setups, time.Since(start).Seconds())
		}
		hits0, miss0 := d.protoTotals()
		d.sp.on = trace && s%2 == 0
		seg, manage = seg[:0], manage[:0]
		segStart := time.Now()
		for i := 0; i < segmentOps; i++ {
			a := d.next()
			xreq, req0 := d.xreq, d.xreq.Value()
			begin := time.Now()
			d.sp.start(begin)
			events0 := d.events
			err := d.do(a)
			lat := time.Since(begin)
			r.attempted++
			ops++
			counts[a]++
			if err != nil {
				r.fail("%s: %v", actionNames[a], err)
			}
			seg = append(seg, lat)
			if a == aManage {
				manage = append(manage, lat)
			}
			if d.sp.on {
				t := &traced[a]
				t.total = append(t.total, lat)
				var inLayers time.Duration
				for l := range d.sp.d {
					t.layers[l] = append(t.layers[l], d.sp.d[l])
					inLayers += d.sp.d[l]
				}
				unexplained = append(unexplained, lat-inLayers)
				t.events += int64(d.events - events0)
				t.requests += xreq.Value() - req0
				if d.xreq != xreq {
					// A restart: the new WM's requests count too.
					t.requests += d.xreq.Value()
				}
			}
		}
		elapsed := time.Since(segStart)
		hits1, miss1 := d.protoTotals()
		protoHits += hits1 - hits0
		protoMiss += miss1 - miss0
		sortDurations(seg)
		if len(manage) > 0 {
			manageP50 = append(manageP50, usec(percentile(sortDurations(manage), 50)))
		}
		if d.sp.on {
			tracedSegs.add(len(seg), elapsed, percentile(seg, 50), percentile(seg, 99))
		} else {
			plain.add(len(seg), elapsed, percentile(seg, 50), percentile(seg, 99))
			heaps = append(heaps, liveHeapMB(d))
		}
	}
	d.sp.on = false
	g1 := readGo()
	d.check(r)
	defer d.close()

	r.add("setup_s", "s", median(setups))
	r.add("setups", "count", float64(len(setups)))
	r.add("ops", "count", float64(ops))
	for a := range counts {
		r.add("actions."+actionNames[a], "count", float64(counts[a]))
	}
	// Per segment like p50_us, so the run keeps no sample buffer that
	// grows with its length.
	r.add("manage_p50_us", "us", mean(manageP50))

	if !trace {
		r.add("ops_per_s", "1/s", plain.opsPerSecond())
		r.add("p50_us", "us", plain.p50us())
		r.add("p99_us", "us", plain.p99us())
		r.add("heap_mb", "MB", median(heaps))
		return nil
	}

	dg := g1.sub(g0)
	r.add("go.allocs_per_op", "count", float64(dg.allocObjs)/float64(ops))
	r.add("go.alloc_bytes_per_op", "B", float64(dg.allocBytes)/float64(ops))
	r.add("go.gc_cpu_share", "share", dg.gcShare())
	if protoHits+protoMiss > 0 {
		r.add("core.deco_proto_hit_share", "share", float64(protoHits)/float64(protoHits+protoMiss))
	}

	var all []time.Duration
	var allLayers [numLayers][]time.Duration
	var tracedOps, tracedReq int64
	for a := range traced {
		t := &traced[a]
		if len(t.total) == 0 {
			continue
		}
		name := actionNames[a]
		n := int64(len(t.total))
		tracedOps += n
		tracedReq += t.requests
		all = append(all, t.total...)
		sortDurations(t.total)
		r.add("core.op_us."+name+".p50", "us", usec(percentile(t.total, 50)))
		r.add("core.pump_us."+name+".p50", "us", usec(percentile(sortDurations(t.layers[lPump]), 50)))
		r.add("core.pump_us."+name+".p99", "us", usec(percentile(t.layers[lPump], 99)))
		r.add("core.call_us."+name+".p50", "us", usec(percentile(sortDurations(t.layers[lCall]), 50)))
		r.add("xserver.client_us."+name+".p50", "us", usec(percentile(sortDurations(t.layers[lClient]), 50)))
		r.add("core.events_per_action."+name, "count", float64(t.events)/float64(n))
		r.add("xserver.requests_per_action."+name, "count", float64(t.requests)/float64(n))
		for l := range allLayers {
			allLayers[l] = append(allLayers[l], t.layers[l]...)
		}
	}
	r.add("xserver.requests_per_op", "count", float64(tracedReq)/float64(tracedOps))
	sortDurations(all)
	e2e := usec(percentile(all, 50))
	parts := map[string]float64{}
	for l := range allLayers {
		parts[layerNames[l]] = usec(percentile(sortDurations(allLayers[l]), 50))
	}
	r.add("driver.gap_us.p50", "us", usec(percentile(sortDurations(unexplained), 50)))
	r.layerSum(e2e, parts)
	r.add("trace.overhead", "ratio", tracedSegs.p50us()/plain.p50us())
	return nil
}

func (d *desktop) close() { d.wm.Close() }

// protoCounts reads the current WM's decoration prototype cache
// counters.
func (d *desktop) protoCounts() (hits, misses int64) {
	reg := d.wm.Metrics()
	return reg.Counter("deco.proto_hits").Value(), reg.Counter("deco.proto_misses").Value()
}

// protoTotals is protoCounts summed over every WM of the run.
func (d *desktop) protoTotals() (hits, misses int64) {
	hits, misses = d.protoCounts()
	return hits + d.protoHits, misses + d.protoMisses
}
