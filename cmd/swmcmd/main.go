// Command swmcmd demonstrates the paper's out-of-process command
// protocol (§5): "By writing a special property on the root window, swm
// interprets its contents and executes commands."
//
// Because the X server in this reproduction is in-process, swmcmd runs
// a self-contained demonstration: it starts a server + swm + a few
// clients, then delivers the given command exactly the way the real
// swmcmd does — by writing a property from a second client connection —
// and reports the observable effect.
//
// Two protocol forms are supported. The versioned request/response form
// (internal/swmproto) is the default: commands are acknowledged and
// structured state can be queried as JSON. The paper's original one-way
// SWM_COMMAND form is kept behind -legacy.
//
//	swmcmd 'f.iconify(XTerm)'
//	swmcmd -legacy 'f.save(XTerm) f.zoom(XTerm)'
//	swmcmd -query stats
//	swmcmd -query trace
//	swmcmd -query clients
//	swmcmd -query desktop
//	swmcmd -list
//
// With -http, swmcmd targets a running fleet service (swmhttpd)
// instead of the self-contained demo; -session picks the fleet
// session. Query output is identical on both transports — the
// indented JSON result from the one shared dispatch path.
//
//	swmcmd -http http://127.0.0.1:7070 -session 3 -query clients
//	swmcmd -http http://127.0.0.1:7070 -session 3 'f.iconify(XTerm)'
//
// Exit status is the protocol's error-code mapping (swmproto.ExitCode)
// on both transports: 0 success, 1 transport failure, then one code
// per protocol error class (bad_request=2, unknown_op=3, ... — pinned
// by the swmproto tests).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"

	"repro/internal/clients"
	"repro/internal/core"
	"repro/internal/raster"
	"repro/internal/swmhttp"
	"repro/internal/swmproto"
	"repro/internal/templates"
	"repro/internal/xproto"
	"repro/internal/xserver"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("swmcmd: ")
	list := flag.Bool("list", false, "list the window manager functions swm understands")
	render := flag.Bool("render", false, "render the screen after executing the command")
	query := flag.String("query", "", "query swm state: stats, trace, clients or desktop")
	legacy := flag.Bool("legacy", false, "use the one-way SWM_COMMAND form (no acknowledgement)")
	httpBase := flag.String("http", "", "target a running fleet service at this base URL instead of the in-process demo")
	session := flag.Int("session", 0, "fleet session id (with -http)")
	flag.Parse()

	if *list {
		for _, name := range core.FunctionNames() {
			fmt.Println(name)
		}
		return
	}
	if *query == "" && flag.NArg() == 0 {
		log.Fatal("usage: swmcmd [-render] [-legacy] '<f.function ...>' | swmcmd -query stats|trace|clients|desktop") //swm:ok f.function is a usage placeholder, not a registered function
	}
	command := strings.Join(flag.Args(), " ")

	if *httpBase != "" {
		if *legacy {
			log.Fatal("-legacy is the X-property transport; it cannot be combined with -http")
		}
		if *render {
			log.Fatal("-render needs the in-process demo; it cannot be combined with -http")
		}
		runHTTP(*httpBase, *session, *query, command)
		return
	}

	// Bring up the demo session.
	s := xserver.NewServer()
	db, err := templates.Load(templates.OpenLook)
	if err != nil {
		log.Fatal(err)
	}
	wm, err := core.New(s, core.Options{DB: db, VirtualDesktop: true})
	if err != nil {
		log.Fatal(err)
	}
	// Queries are about observing swm, so record the demo's activity.
	if *query != "" {
		wm.Trace().Enable()
	}
	term, err := clients.Xterm(s, "shell")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := clients.Xclock(s); err != nil {
		log.Fatal(err)
	}
	wm.Pump()

	root := s.Screens()[0].Root

	if *query != "" {
		resp, err := runQuery(s, wm, root, *query)
		if err != nil {
			log.Fatal(err)
		}
		conclude(resp)
		if err := printResult(resp); err != nil {
			log.Fatal(err)
		}
		return
	}

	before := describe(wm, term)

	if *legacy {
		// The paper's protocol: write SWM_COMMAND on the root from a
		// separate connection, exactly as the real swmcmd does from an
		// xterm. One-way; errors are only visible in swm's log.
		cmdConn := s.Connect("swmcmd")
		err = cmdConn.ChangeProperty(root, cmdConn.InternAtom(swmproto.CommandProperty),
			cmdConn.InternAtom("STRING"), 8, xproto.PropModeReplace, []byte(command))
		if err != nil {
			log.Fatal(err)
		}
		wm.Pump()
	} else {
		resp, err := runExec(s, wm, root, command)
		if err != nil {
			log.Fatal(err)
		}
		conclude(resp)
	}

	after := describe(wm, term)
	fmt.Printf("executed: %s\n", command)
	fmt.Printf("before:   %s\n", before)
	fmt.Printf("after:    %s\n", after)
	if wm.QuitRequested() {
		fmt.Println("state:    quit requested")
	}
	if wm.RestartRequested() {
		fmt.Println("state:    restart requested")
	}
	if out := wm.LastPlaces(); out != "" {
		fmt.Printf("places file:\n%s", out)
	}
	if *render {
		art, err := raster.RenderWindow(wm.Conn(), root, raster.Options{
			ScaleX: 16, ScaleY: 28, DrawLabels: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("screen:\n%s", art)
	}
}

// runQuery performs one versioned query round-trip and returns the
// reply envelope. The protocol client — and with it the SWM_REPLY
// window — is torn down on every path, success or error; os.Exit in a
// caller of conclude must not skip the deferred Close, so the envelope
// is returned for the caller to judge instead.
func runQuery(s *xserver.Server, wm *core.WM, root xproto.XID, target string) (swmproto.Response, error) {
	cl, err := swmproto.NewClient(s.Connect("swmcmd"), root)
	if err != nil {
		return swmproto.Response{}, err
	}
	defer cl.Close()
	return roundTrip(wm, cl, swmproto.Request{Op: swmproto.OpQuery, Target: target})
}

// runExec delivers one command through the versioned request/response
// protocol, with the same teardown guarantee as runQuery.
func runExec(s *xserver.Server, wm *core.WM, root xproto.XID, command string) (swmproto.Response, error) {
	cl, err := swmproto.NewClient(s.Connect("swmcmd"), root)
	if err != nil {
		return swmproto.Response{}, err
	}
	defer cl.Close()
	return roundTrip(wm, cl, swmproto.Request{Op: swmproto.OpExec, Command: command})
}

// conclude terminates with the protocol's mapped exit status when the
// envelope is an error; success falls through. Both transports funnel
// here, so `swmcmd; echo $?` means the same thing over a property
// write and over HTTP.
func conclude(resp swmproto.Response) {
	if resp.OK {
		return
	}
	fmt.Fprintf(os.Stderr, "swmcmd: %s: %s\n", resp.Code, resp.Error)
	os.Exit(swmproto.ExitCode(resp.Code))
}

// printResult pretty-prints a successful query payload — the one
// output format both transports share.
func printResult(resp swmproto.Response) error {
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, resp.Result, "", "  "); err != nil {
		return err
	}
	fmt.Println(pretty.String())
	return nil
}

// runHTTP performs the query or exec against a running fleet service.
// Transport failures (no listener, bad URL, non-envelope body) exit 1;
// protocol errors exit through the shared code table like the property
// transport.
func runHTTP(base string, session int, query, command string) {
	var resp swmproto.Response
	var err error
	if query != "" {
		resp, err = httpRoundTrip("GET",
			fmt.Sprintf("%s/v1/sessions/%d/%s", base, session, query), nil)
	} else {
		var body []byte
		body, err = json.Marshal(swmhttp.ExecBody{Command: command})
		if err == nil {
			resp, err = httpRoundTrip("POST",
				fmt.Sprintf("%s/v1/sessions/%d/exec", base, session), body)
		}
	}
	if err != nil {
		log.Fatal(err)
	}
	conclude(resp)
	if query != "" {
		if err := printResult(resp); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Printf("executed: %s (session %d acknowledged)\n", command, session)
}

func httpRoundTrip(method, url string, body []byte) (swmproto.Response, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return swmproto.Response{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		return swmproto.Response{}, err
	}
	defer res.Body.Close()
	var resp swmproto.Response
	if err := json.NewDecoder(res.Body).Decode(&resp); err != nil {
		return swmproto.Response{}, fmt.Errorf("decode reply from %s: %w", url, err)
	}
	io.Copy(io.Discard, res.Body) //nolint:errcheck // drain for keep-alive
	return resp, nil
}

// roundTrip sends one request, pumps the window manager so it serves
// it, and returns the reply.
func roundTrip(wm *core.WM, cl *swmproto.Client, req swmproto.Request) (swmproto.Response, error) {
	id, err := cl.Send(req)
	if err != nil {
		return swmproto.Response{}, err
	}
	wm.Pump()
	resp, ok, err := cl.Poll()
	if err != nil {
		return swmproto.Response{}, err
	}
	if !ok {
		return swmproto.Response{}, fmt.Errorf("no reply to request %d", id)
	}
	if resp.ID != id {
		return swmproto.Response{}, fmt.Errorf("reply %d does not match request %d", resp.ID, id)
	}
	return resp, nil
}

func describe(wm *core.WM, app *clients.App) string {
	c, ok := wm.ClientOf(app.Win)
	if !ok {
		return "xterm: unmanaged"
	}
	state := "normal"
	if c.State == xproto.IconicState {
		state = "iconic"
	}
	extra := ""
	if c.Sticky {
		extra = " sticky"
	}
	return fmt.Sprintf("xterm: %s at %v%s", state, c.FrameRect, extra)
}
