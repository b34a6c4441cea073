package core

import (
	"encoding/json"
	"sort"

	"repro/internal/swmproto"
	"repro/internal/xproto"
)

// handleSwmQuery serves the request/response form of the swmcmd
// protocol (internal/swmproto): read and consume the SWM_QUERY property
// from the root, serve the request, and write the response to the
// SWM_REPLY property on the requester's reply window. The legacy
// one-way SWM_COMMAND path is untouched; this is the versioned query
// API layered on the same property mechanism.
func (wm *WM) handleSwmQuery(scr *Screen) {
	atom := wm.conn.InternAtom(swmproto.QueryProperty)
	prop, ok, err := wm.conn.GetProperty(scr.Root, atom)
	if err != nil || !ok {
		return
	}
	wm.check(nil, "consume SWM_QUERY", wm.conn.DeleteProperty(scr.Root, atom))

	req, err := swmproto.DecodeRequest(prop.Data)
	if err != nil {
		wm.logf("swm query: %v", err)
		// A partially decoded request may still name a reply window;
		// tell the peer why it was rejected rather than going silent.
		if req.ReplyWindow != 0 {
			wm.sendReply(req, swmproto.Errorf(swmproto.CodeBadRequest, "%v", err))
		}
		return
	}
	if req.ReplyWindow == 0 {
		wm.logf("swm query: request %d has no reply window", req.ID)
		return
	}
	// The property transport's screen binding is the root the request
	// was written on, whatever the client put in the field.
	req.Screen = scr.Num
	wm.sendReply(req, wm.ServeProto(req))
}

// ServeProto dispatches a decoded request to its handler and packs the
// answer: the one request handler every transport shares.
// The property transport (handleSwmQuery) and the fleet's HTTP lane
// dispatch (fleet.Manager.ServeSession → internal/swmhttp) both land
// here, so the query-serving logic exists exactly once. Failures are
// reported in-band: OK=false plus a typed Code and human-readable
// Error.
//
// Query results take one of two render paths. Stats streams through
// swmproto.AppendStats; trace, clients and desktop build their result
// value and json.Marshal it. In a fleet these are the bytes the
// per-session snapshot cache publishes, so a render here is a cache
// miss: warm reads never reach the lane.
//
// Like every other WM entry point, ServeProto must run on the event
// loop (or under the session's lane in a fleet); it is not
// internally synchronized.
func (wm *WM) ServeProto(req swmproto.Request) swmproto.Response {
	if req.V != 0 && req.V != swmproto.Version {
		// Transports that decode off a wire check the version before
		// dispatching; this guards direct in-process callers. Zero
		// means "current" so handler users need not stamp it.
		return swmproto.Errorf(swmproto.CodeBadRequest, "swmproto: version %d, want %d", req.V, swmproto.Version)
	}
	var scr *Screen
	for _, s := range wm.screens {
		if s.Num == req.Screen {
			scr = s
			break
		}
	}
	if scr == nil {
		return swmproto.Errorf(swmproto.CodeBadRequest, "no screen %d", req.Screen)
	}
	switch req.Op {
	case swmproto.OpExec:
		if err := wm.execCommand(scr, req.Command); err != nil {
			return swmproto.Errorf(swmproto.CodeExecFailed, "%v", err)
		}
		return swmproto.Response{OK: true}
	case swmproto.OpQuery:
		var v any
		switch req.Target {
		case swmproto.TargetStats:
			var lastErr string
			if err := wm.LastError(); err != nil {
				lastErr = err.Error()
			}
			// One buffer sized from the previous render: a single
			// allocation the cache keeps without slack, with headroom
			// for counters gaining digits between renders.
			data := swmproto.AppendStats(make([]byte, 0, wm.statsSize), wm.metrics.registry, wm.Degraded(), lastErr)
			wm.statsSize = len(data) + len(data)/16
			return swmproto.OKResult(data)
		case swmproto.TargetTrace:
			v = wm.traceResult()
		case swmproto.TargetClients:
			v = wm.clientsResult()
		case swmproto.TargetDesktop:
			v = wm.desktopResult()
		default:
			return swmproto.Errorf(swmproto.CodeUnknownTarget, "unknown query target %s", req.Target)
		}
		data, err := json.Marshal(v)
		if err != nil {
			return swmproto.Errorf(swmproto.CodeInternal, "%v", err)
		}
		return swmproto.OKResult(data)
	default:
		return swmproto.Errorf(swmproto.CodeUnknownOp, "unknown op %s", req.Op)
	}
}

// sendReply stamps the protocol fields and writes the response to the
// reply window. The window belongs to the requesting client; if it died
// in the meantime the write fails and check records the degradation.
func (wm *WM) sendReply(req swmproto.Request, resp swmproto.Response) {
	resp.V = swmproto.Version
	resp.ID = req.ID
	wm.check(nil, "write SWM_REPLY", wm.conn.ChangeProperty(
		xproto.XID(req.ReplyWindow), wm.conn.InternAtom(swmproto.ReplyProperty),
		wm.conn.InternAtom("STRING"), 8, xproto.PropModeReplace, swmproto.AppendResponse(nil, &resp)))
}

func (wm *WM) traceResult() swmproto.TraceResult {
	t := wm.metrics.trace
	return swmproto.TraceResult{
		Enabled: t.Enabled(),
		Cap:     t.Cap(),
		Entries: t.Snapshot(),
	}
}

func (wm *WM) clientsResult() swmproto.ClientsResult {
	res := swmproto.ClientsResult{Clients: []swmproto.ClientInfo{}}
	for _, c := range wm.clients {
		state := "normal"
		if c.State == xproto.IconicState {
			state = "iconic"
		}
		res.Clients = append(res.Clients, swmproto.ClientInfo{
			Window:    uint32(c.Win),
			Name:      c.Name,
			Class:     c.Class.Class,
			Instance:  c.Class.Instance,
			State:     state,
			Sticky:    c.Sticky,
			Transient: c.Transient != xproto.None,
			X:         c.FrameRect.X,
			Y:         c.FrameRect.Y,
			Width:     c.FrameRect.Width,
			Height:    c.FrameRect.Height,
		})
	}
	sort.Slice(res.Clients, func(i, j int) bool {
		return res.Clients[i].Window < res.Clients[j].Window
	})
	return res
}

func (wm *WM) desktopResult() swmproto.DesktopResult {
	var res swmproto.DesktopResult
	for _, scr := range wm.screens {
		info := swmproto.DesktopInfo{
			Screen:         scr.Num,
			Enabled:        scr.Desktop != xproto.None,
			Width:          scr.Width,
			Height:         scr.Height,
			ViewWidth:      scr.Width,
			ViewHeight:     scr.Height,
			CurrentDesktop: scr.currentDesktop,
			Desktops:       1 + len(scr.extraDesktops),
		}
		if info.Enabled {
			info.Width = scr.DesktopW
			info.Height = scr.DesktopH
			info.PanX = scr.PanX
			info.PanY = scr.PanY
		}
		res.Screens = append(res.Screens, info)
	}
	return res
}
