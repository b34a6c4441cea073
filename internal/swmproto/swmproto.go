// Package swmproto defines the versioned request/response form of the
// swmcmd protocol.
//
// The paper's original protocol (§5) is one-way: a client writes the
// SWM_COMMAND property on the root window and swm executes its contents
// with no acknowledgement. That form is kept as a compatibility path.
// This package adds a round-trip form on top of the same property
// mechanism:
//
//  1. The client creates a small override-redirect "reply window" and
//     writes a JSON-encoded Request to the SWM_QUERY property on the
//     root window. The request carries the reply window's XID.
//  2. swm consumes the property, serves the request, and writes a
//     JSON-encoded Response to the SWM_REPLY property on the reply
//     window.
//  3. The client reads SWM_REPLY off its own window and deletes it.
//
// Everything is ordinary property traffic, so the round trip needs no
// new server machinery and works from any X client, exactly in the
// spirit of the original swmcmd. Requests and responses carry a version
// number and a request ID so either side can reject mismatched peers
// and correlate replies.
package swmproto

import (
	"encoding/json"
	"fmt"

	"repro/internal/obs"
	"repro/internal/xproto"
	"repro/internal/xserver"
)

// Version is the protocol version this package speaks. swm rejects
// requests whose V field does not match.
const Version = 1

// Property names used by the protocol.
const (
	// QueryProperty is written on the root window by clients; it holds
	// an encoded Request.
	QueryProperty = "SWM_QUERY"
	// ReplyProperty is written on the request's reply window by swm; it
	// holds an encoded Response.
	ReplyProperty = "SWM_REPLY"
	// CommandProperty is the legacy one-way form: a raw command string
	// on the root window, executed with no reply.
	CommandProperty = "SWM_COMMAND"
)

// Request operations.
const (
	// OpQuery asks swm for structured state; Target selects which
	// (see the Target* constants).
	OpQuery = "query"
	// OpExec executes Command through the same f.* interpreter as the
	// legacy protocol, but reports success or failure in the Response.
	OpExec = "exec"
)

// Query targets.
const (
	TargetStats   = "stats"
	TargetTrace   = "trace"
	TargetClients = "clients"
	TargetDesktop = "desktop"
)

// Request is the transport-independent request form: what a client
// writes to SWM_QUERY on the root window, and what the HTTP transport
// decodes its route and body into.
type Request struct {
	V       int    `json:"v"`
	ID      uint64 `json:"id"`
	Op      string `json:"op"`                // OpQuery or OpExec
	Target  string `json:"target,omitempty"`  // for OpQuery
	Command string `json:"command,omitempty"` // for OpExec
	// Screen selects which of the WM's screens serves the request
	// (exec context, 0 = first). The property transport overrides it
	// with the screen whose root the request was written on; the HTTP
	// transport passes the client's choice through.
	Screen int `json:"screen,omitempty"`
	// ReplyWindow is property-transport plumbing: the XID the response
	// is written to. Other transports leave it zero.
	ReplyWindow uint32 `json:"reply_window,omitempty"`
}

// Response is the uniform envelope every transport returns: what swm
// writes to SWM_REPLY on the reply window and what the HTTP transport
// serves as the response body, status derived from Code via HTTPStatus.
type Response struct {
	V  int    `json:"v"`
	ID uint64 `json:"id"`
	OK bool   `json:"ok"`
	// Code is the machine-readable error class (the Code* constants),
	// set exactly when OK is false. Error carries the human-readable
	// detail.
	Code  string `json:"code,omitempty"`
	Error string `json:"error,omitempty"`
	// Result is the target-specific payload for successful queries:
	// StatsResult, TraceResult, ClientsResult or DesktopResult.
	Result json.RawMessage `json:"result,omitempty"`
}

// StatsResult answers TargetStats: the full metrics registry plus the
// degradation summary.
type StatsResult struct {
	Metrics   obs.Snapshot `json:"metrics"`
	Degraded  int          `json:"degraded"`
	LastError string       `json:"last_error,omitempty"`
}

// TraceResult answers TargetTrace: the event trace, oldest first.
type TraceResult struct {
	Enabled bool        `json:"enabled"`
	Cap     int         `json:"cap"`
	Entries []obs.Entry `json:"entries"`
}

// ClientInfo is one managed window in a ClientsResult.
type ClientInfo struct {
	Window    uint32 `json:"window"`
	Name      string `json:"name,omitempty"`
	Class     string `json:"class,omitempty"`
	Instance  string `json:"instance,omitempty"`
	State     string `json:"state"` // "normal" or "iconic"
	Sticky    bool   `json:"sticky,omitempty"`
	Transient bool   `json:"transient,omitempty"`
	X         int    `json:"x"`
	Y         int    `json:"y"`
	Width     int    `json:"width"`
	Height    int    `json:"height"`
}

// ClientsResult answers TargetClients.
type ClientsResult struct {
	Clients []ClientInfo `json:"clients"`
}

// DesktopResult answers TargetDesktop: the Virtual Desktop geometry and
// pan position per screen.
type DesktopResult struct {
	Screens []DesktopInfo `json:"screens"`
}

// DesktopInfo is one screen's Virtual Desktop state.
type DesktopInfo struct {
	Screen         int  `json:"screen"`
	Enabled        bool `json:"enabled"`
	Width          int  `json:"width"` // desktop size (screen size when disabled)
	Height         int  `json:"height"`
	ViewWidth      int  `json:"view_width"` // the physical screen
	ViewHeight     int  `json:"view_height"`
	PanX           int  `json:"pan_x"`
	PanY           int  `json:"pan_y"`
	CurrentDesktop int  `json:"current_desktop"`
	Desktops       int  `json:"desktops"`
}

// EncodeRequest marshals a Request for ChangeProperty.
func EncodeRequest(req Request) ([]byte, error) { return json.Marshal(req) }

// DecodeRequest unmarshals a Request and checks the version.
func DecodeRequest(data []byte) (Request, error) {
	var req Request
	if err := json.Unmarshal(data, &req); err != nil {
		return Request{}, fmt.Errorf("swmproto: bad request: %w", err)
	}
	if req.V != Version {
		return req, fmt.Errorf("swmproto: version %d, want %d", req.V, Version)
	}
	return req, nil
}

// DecodeResponse unmarshals a Response and checks the version.
func DecodeResponse(data []byte) (Response, error) {
	var resp Response
	if err := json.Unmarshal(data, &resp); err != nil {
		return Response{}, fmt.Errorf("swmproto: bad response: %w", err)
	}
	if resp.V != Version {
		return resp, fmt.Errorf("swmproto: version %d, want %d", resp.V, Version)
	}
	return resp, nil
}

// Client drives the request/response protocol from a client connection.
//
// The X server in this reproduction is in-process, so a Client cannot
// block waiting for swm: the caller sends a request, lets the window
// manager pump its event loop, then polls for the reply.
type Client struct {
	conn   *xserver.Conn
	root   xproto.XID
	reply  xproto.XID
	nextID uint64
}

// NewClient creates a protocol client. It creates a 1×1
// override-redirect reply window as a child of root; the window is
// never mapped.
func NewClient(conn *xserver.Conn, root xproto.XID) (*Client, error) {
	reply, err := conn.CreateWindow(root, xproto.Rect{Width: 1, Height: 1}, 0,
		xserver.WindowAttributes{OverrideRedirect: true, EventMask: xproto.PropertyChangeMask})
	if err != nil {
		return nil, fmt.Errorf("swmproto: create reply window: %w", err)
	}
	return &Client{conn: conn, root: root, reply: reply}, nil
}

// ReplyWindow returns the XID of the client's reply window.
func (cl *Client) ReplyWindow() xproto.XID { return cl.reply }

// Send writes the request to SWM_QUERY on the root window, filling in
// the version, a fresh request ID, and the reply window. It returns the
// ID to correlate with the eventual Response.
func (cl *Client) Send(req Request) (uint64, error) {
	cl.nextID++
	req.V = Version
	req.ID = cl.nextID
	req.ReplyWindow = uint32(cl.reply)
	data, err := EncodeRequest(req)
	if err != nil {
		return 0, err
	}
	err = cl.conn.ChangeProperty(cl.root, cl.conn.InternAtom(QueryProperty),
		cl.conn.InternAtom("STRING"), 8, xproto.PropModeReplace, data)
	if err != nil {
		return 0, fmt.Errorf("swmproto: write %s: %w", QueryProperty, err)
	}
	return req.ID, nil
}

// Query sends an OpQuery request for the given target.
func (cl *Client) Query(target string) (uint64, error) {
	return cl.Send(Request{Op: OpQuery, Target: target})
}

// Exec sends an OpExec request for the given command string.
func (cl *Client) Exec(command string) (uint64, error) {
	return cl.Send(Request{Op: OpExec, Command: command})
}

// Poll checks the reply window for a Response. It returns ok=false when
// no reply has arrived yet. A consumed reply is deleted so the window
// is ready for the next request.
func (cl *Client) Poll() (Response, bool, error) {
	atom := cl.conn.InternAtom(ReplyProperty)
	prop, ok, err := cl.conn.GetProperty(cl.reply, atom)
	if err != nil {
		return Response{}, false, fmt.Errorf("swmproto: read %s: %w", ReplyProperty, err)
	}
	if !ok {
		return Response{}, false, nil
	}
	if err := cl.conn.DeleteProperty(cl.reply, atom); err != nil {
		return Response{}, false, fmt.Errorf("swmproto: consume %s: %w", ReplyProperty, err)
	}
	resp, err := DecodeResponse(prop.Data)
	if err != nil {
		return Response{}, false, err
	}
	return resp, true, nil
}

// Close destroys the reply window.
func (cl *Client) Close() error {
	if cl.reply == xproto.None {
		return nil
	}
	err := cl.conn.DestroyWindow(cl.reply)
	cl.reply = xproto.None
	return err
}
