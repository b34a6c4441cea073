// Virtual Desktop rooms: the paper's §6 scenario — "it is very easy to
// implement a rooms like environment by grouping windows into various
// quadrants of the desktop". This example builds four rooms (mail,
// code, docs, graphics) on a 4x desktop, keeps a clock and mail
// notifier sticky, binds quadrant jumps, and walks through the rooms.
package main

import (
	"fmt"
	"log"

	"repro/internal/clients"
	"repro/internal/core"
	"repro/internal/icccm"
	"repro/internal/templates"
	"repro/internal/xserver"
)

func main() {
	log.SetFlags(0)

	db, err := templates.Load(templates.OpenLook)
	if err != nil {
		log.Fatal(err)
	}
	// The sticky environment (paper §6.2): clock and mail notifier stay
	// on the glass.
	db.MustPut("swm*XClock*sticky", "True")
	db.MustPut("swm*XBiff*sticky", "True")
	// Rooms via root key bindings: Meta+F1..F4 jump to quadrants.
	db.MustPut("swm*root.bindings", `Meta <Key>F1 : f.pangoto(0,0)
Meta <Key>F2 : f.pangoto(1152,0)
Meta <Key>F3 : f.pangoto(0,900)
Meta <Key>F4 : f.pangoto(1152,900)`)

	server := xserver.NewServer()
	wm, err := core.New(server, core.Options{
		DB:             db,
		VirtualDesktop: true,
		EnablePanner:   true,
	})
	if err != nil {
		log.Fatal(err)
	}
	scr := wm.Screens()[0]
	wm.ResizeDesktop(scr, 2304, 1800) // 2x2 rooms

	// Populate the rooms.
	rooms := []struct {
		name string
		apps []clients.Config
	}{
		{"mail (room 1: 0,0)", []clients.Config{
			{Instance: "xmh", Class: "Xmh", Width: 700, Height: 600,
				NormalHints: &icccm.NormalHints{Flags: icccm.USPosition, X: 100, Y: 100}},
		}},
		{"code (room 2: 1152,0)", []clients.Config{
			{Instance: "emacs", Class: "Emacs", Width: 800, Height: 700,
				NormalHints: &icccm.NormalHints{Flags: icccm.USPosition, X: 1252, Y: 80}},
			{Instance: "xterm", Class: "XTerm", Width: 500, Height: 300,
				NormalHints: &icccm.NormalHints{Flags: icccm.USPosition, X: 1700, Y: 500}},
		}},
		{"docs (room 3: 0,900)", []clients.Config{
			{Instance: "xdvi", Class: "XDvi", Width: 600, Height: 800,
				NormalHints: &icccm.NormalHints{Flags: icccm.USPosition, X: 150, Y: 980}},
		}},
		{"graphics (room 4: 1152,900)", []clients.Config{
			{Instance: "xfig", Class: "XFig", Width: 900, Height: 700,
				NormalHints: &icccm.NormalHints{Flags: icccm.USPosition, X: 1300, Y: 1000}},
		}},
	}
	for _, room := range rooms {
		for _, cfg := range room.apps {
			if _, err := clients.Launch(server, cfg); err != nil {
				log.Fatal(err)
			}
		}
	}
	// The sticky environment.
	if _, err := clients.Xclock(server); err != nil {
		log.Fatal(err)
	}
	if _, err := clients.Xbiff(server); err != nil {
		log.Fatal(err)
	}
	wm.Pump()

	fmt.Printf("desktop %dx%d, %d clients\n\n", scr.DesktopW, scr.DesktopH, len(wm.Clients()))

	// Walk the rooms with the bound keys.
	keys := []string{"F1", "F2", "F3", "F4"}
	for i, room := range rooms {
		server.FakeKeyPress(keys[i], 8 /* Mod1 */)
		wm.Pump()
		vp := scr.Viewport()
		visible := []string{}
		for _, c := range wm.Clients() {
			if c.IsInternal() {
				continue
			}
			r := c.FrameRect
			if c.Sticky {
				visible = append(visible, c.Class.Instance+"(sticky)")
				continue
			}
			if ix, ok := r.Intersect(vp); ok && !ix.Empty() {
				visible = append(visible, c.Class.Instance)
			}
		}
		fmt.Printf("%-26s viewport %v -> visible: %v\n", room.name, vp, visible)
	}

	// The panner shows the whole layout at once.
	fmt.Println("\npanner miniatures (desktop positions / scale):")
	p := scr.Panner()
	for _, c := range p.MiniatureClients() {
		fmt.Printf("  %-8s at (%d,%d)\n", c.Class.Instance,
			c.FrameRect.X/p.Scale(), c.FrameRect.Y/p.Scale())
	}
}
