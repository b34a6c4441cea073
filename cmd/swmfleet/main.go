// Command swmfleet runs a fleet of independent swm sessions — display
// server, connection, window manager — in one process, shares the
// read-mostly expensive state (the resource database, with its compiled
// query trie and decoration prototypes) across all of them, and reports
// the fleet's health: the WM-as-a-service load story from the ROADMAP.
// To serve a fleet over HTTP, run swmhttpd.
//
//	swmfleet                          # 64 sessions, 10 clients each
//	swmfleet -sessions 1000           # the thousand-session configuration
//	swmfleet -restart 0.25            # restart-adopt a quarter of the fleet
//	swmfleet -crash 3                 # panic-crash session 3, show isolation
//	swmfleet -query                   # print the fleet registry snapshot
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/clients"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/templates"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("swmfleet: ")
	sessions := flag.Int("sessions", 64, "number of display+WM sessions")
	perSession := flag.Int("clients", 10, "clients launched per session")
	workers := flag.Int("workers", 0, "goroutines a fleet-wide step fans out on (0 = min(GOMAXPROCS, 8))")
	template := flag.String("template", "openlook", "configuration template: openlook, motif or default")
	restart := flag.Float64("restart", 0.25, "fraction of the fleet to restart-adopt")
	crash := flag.Int("crash", -1, "panic-crash this session to demonstrate isolation (-1 = none)")
	query := flag.Bool("query", false, "print the fleet registry snapshot (fleet.* instruments)")
	verbose := flag.Bool("v", false, "log fleet diagnostics")
	flag.Parse()

	db, err := templates.LoadByName(*template)
	if err != nil {
		log.Fatal(err)
	}
	cfg := fleet.Config{
		Sessions: *sessions,
		Workers:  *workers,
		DB:       db,
	}
	if *verbose {
		cfg.Log = os.Stderr
	}

	start := time.Now()
	m, err := fleet.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	m.StartAll()
	fmt.Printf("started %d sessions in %v\n",
		m.Stats().Live, time.Since(start).Round(time.Millisecond))

	launch := time.Now()
	m.Each(func(i int) {
		srv := m.Session(i).Server()
		for j := 0; j < *perSession; j++ {
			if _, err := clients.Launch(srv, clients.Config{
				Instance: fmt.Sprintf("s%dc%d", i, j), Class: "XTerm",
				Width: 120, Height: 90, X: 8 * (j % 12), Y: 6 * (j % 14),
			}); err != nil {
				log.Fatal(err)
			}
		}
		m.Pump(i)
	})
	fmt.Printf("managed %d clients in %v\n",
		m.Sessions()*(*perSession), time.Since(launch).Round(time.Millisecond))

	if *crash >= 0 && *crash < m.Sessions() {
		m.Exec(*crash, func(*core.WM) { panic("swmfleet -crash demonstration") })
		m.PumpAll()
		fmt.Printf("crashed session %d: fleet now %+v\n", *crash, m.Stats())
	}

	if n := int(float64(m.Sessions()) * *restart); n > 0 {
		rs := time.Now()
		m.Each(func(i int) {
			if i < n {
				m.Restart(i)
			}
		})
		fmt.Printf("restart-adopted %d sessions in %v\n", n, time.Since(rs).Round(time.Millisecond))
	}

	if *query {
		data, err := json.MarshalIndent(m.Metrics().Snapshot(), "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("fleet stats:\n%s\n", data)
	}

	st := m.Stats()
	fmt.Printf("fleet: sessions=%d live=%d failed=%d panics=%d restarts=%d\n",
		st.Sessions, st.Live, st.Failed, st.Panics, st.Restarts)

	m.Close()
	fmt.Println("fleet closed")
}
