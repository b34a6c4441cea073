// Command swmhttpd is the swm network service daemon: a fleet of
// display+WM sessions served over the HTTP/JSON transport
// (internal/swmhttp). It is the long-running half of the service
// layer — swmcmd -http, curl and swmload are its clients.
//
//	swmhttpd                           # 64 sessions on :7070
//	swmhttpd -addr :8080 -sessions 256 -clients 4
//
//	curl localhost:7070/healthz
//	curl localhost:7070/v1/sessions
//	curl localhost:7070/v1/sessions/3/stats
//	curl localhost:7070/metrics
//	curl -X POST -d '{"command":"f.iconify(XTerm)"}' localhost:7070/v1/sessions/3/exec
//
// SIGINT/SIGTERM shuts down gracefully: the listener drains in-flight
// requests, then the fleet closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/clients"
	"repro/internal/fleet"
	"repro/internal/swmhttp"
	"repro/internal/templates"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("swmhttpd: ")
	addr := flag.String("addr", ":7070", "listen address")
	sessions := flag.Int("sessions", 64, "number of display+WM sessions")
	perSession := flag.Int("clients", 2, "clients launched per session")
	workers := flag.Int("workers", 0, "goroutines a fleet-wide step fans out on (0 = min(GOMAXPROCS, 8))")
	template := flag.String("template", "openlook", "configuration template: openlook, motif or default")
	verbose := flag.Bool("v", false, "log fleet diagnostics and requests")
	flag.Parse()

	db, err := templates.LoadByName(*template)
	if err != nil {
		log.Fatal(err)
	}
	cfg := fleet.Config{Sessions: *sessions, Workers: *workers, DB: db}
	httpCfg := swmhttp.Config{}
	if *verbose {
		cfg.Log = os.Stderr
		httpCfg.Log = os.Stderr
	}

	start := time.Now()
	m, err := fleet.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()
	m.StartAll()
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
	log.Printf("fleet of %d sessions (%d clients each) up in %v, serving on %s",
		m.Sessions(), *perSession, time.Since(start).Round(time.Millisecond), *addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := swmhttp.New(m, httpCfg).ListenAndServe(ctx, *addr); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	log.Print("shut down")
}
