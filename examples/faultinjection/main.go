// Fault injection: run the window manager while the simulated server
// fails a fraction of its requests, then reproduce the asynchronous
// death race deterministically — a client window destroyed between the
// event that prompted a request and the request itself. The WM is
// expected to survive both, unmanage the dead client cleanly, and
// account for every error in wm.Stats().
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/clients"
	"repro/internal/core"
	"repro/internal/xproto"
	"repro/internal/xserver"
)

func main() {
	log.SetFlags(0)

	server := xserver.NewServer()
	wm, err := core.New(server, core.Options{
		VirtualDesktop: true, EnablePanner: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	baseline := server.NumWindows()

	// Observe every error the WM's connection sees, exactly once each —
	// the XSetErrorHandler analogue.
	handled := 0
	wm.Conn().SetErrorHandler(func(xe *xproto.XError) { handled++ })

	// 1. Spurious failures: every 9th request returns BadWindow without
	// anything actually dying. The WM logs and carries on.
	wm.Conn().SetFaultPolicy(&xserver.FaultPolicy{
		EveryN: 9, Code: xproto.BadWindow,
	})
	var apps []*clients.App
	for i := 0; i < 8; i++ {
		app, err := clients.Launch(server, clients.Config{
			Instance: fmt.Sprintf("app%d", i), Class: "XTerm",
			Width: 200, Height: 120,
		})
		if err != nil {
			log.Fatal(err)
		}
		apps = append(apps, app)
		wm.Pump()
		if c, ok := wm.ClientOf(app.Win); ok && i%2 == 0 {
			_ = wm.Iconify(c)
		}
	}
	injected := wm.Conn().FaultCount()
	wm.Conn().SetFaultPolicy(nil)

	fmt.Printf("injected %d spurious BadWindow errors; error handler saw %d\n",
		injected, handled)

	// 2. The death race, deterministically: the next ConfigureWindow the
	// WM issues kills its target first. The client asks for a resize;
	// by the time the WM honors it, the window is gone.
	victim := apps[3]
	wm.Conn().SetFaultPolicy(&xserver.FaultPolicy{
		Ops: []xproto.Major{xproto.MajorConfigureWindow}, EveryN: 1, Times: 1,
		Code: xproto.BadWindow, KillTarget: true,
	})
	_ = victim.Resize(300, 200)
	wm.Pump()
	wm.Conn().SetFaultPolicy(nil)

	if _, ok := wm.ClientOf(victim.Win); ok {
		log.Fatal("dead client is still managed")
	}
	fmt.Println("victim unmanaged after dying mid-request")

	// 3. Tear everything down and check nothing leaked server-side.
	for _, app := range apps {
		_ = app.Withdraw()
		wm.Pump()
		app.Close()
		wm.Pump()
	}
	for i := 0; i < 20 && server.NumWindows() != baseline; i++ {
		wm.Pump()
	}

	st := wm.Stats()
	fmt.Printf("managed %d, unmanaged %d, death races %d\n",
		st.Managed, st.Unmanaged, st.DeathRaces)
	codes := make([]string, 0, len(st.Errors))
	for code := range st.Errors {
		codes = append(codes, code)
	}
	sort.Strings(codes)
	for _, code := range codes {
		fmt.Printf("errors[%s] = %d\n", code, st.Errors[code])
	}
	fmt.Printf("server windows: %d (baseline %d)\n", server.NumWindows(), baseline)
}
