// Command swmload drives sustained query/exec traffic at a live swm
// fleet over the HTTP transport and reports latency percentiles and
// error rate. It is the measurement half of the network service layer:
// swmhttpd serves, swmload asks.
//
// Against an already-running service:
//
//	swmload -addr http://127.0.0.1:7070 -clients 1000 -requests 20000
//
// Self-hosted (spins its own fleet + listener in-process, loads it,
// tears it down — the CI smoke shape, no second process needed):
//
//	swmload -selfhost 64 -clients 200 -requests 5000
//
// The request mix is a pure function of -seed, so two runs against the
// same fleet issue the identical request stream. Exit status is 0 only
// when every request succeeded.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/clients"
	"repro/internal/fleet"
	"repro/internal/swmhttp"
	"repro/internal/swmload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("swmload: ")
	addr := flag.String("addr", "", "base URL of a running service, e.g. http://127.0.0.1:7070")
	selfhost := flag.Int("selfhost", 0, "spin an in-process fleet of N sessions and load it (ignores -addr)")
	nclients := flag.Int("clients", 100, "concurrent closed-loop workers")
	requests := flag.Int("requests", 10000, "total requests across all workers")
	seed := flag.Int64("seed", 1, "request-mix seed")
	execEvery := flag.Int("exec-every", 10, "every Nth request per worker is an exec (0 = queries only)")
	command := flag.String("exec-command", "f.nop", "command execs deliver")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request timeout")
	jsonOut := flag.Bool("json", false, "emit the summary as JSON")
	flag.Parse()

	base := *addr
	if *selfhost > 0 {
		var shutdown func()
		var err error
		base, shutdown, err = selfHost(*selfhost)
		if err != nil {
			log.Fatal(err)
		}
		defer shutdown()
	} else if base == "" {
		log.Fatal("need -addr (a running swmhttpd) or -selfhost N")
	}

	sum, err := swmload.Run(swmload.Config{
		BaseURL:     base,
		Clients:     *nclients,
		Requests:    *requests,
		Seed:        *seed,
		ExecEvery:   *execEvery,
		ExecCommand: *command,
		Timeout:     *timeout,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			log.Fatal(err)
		}
	} else {
		sum.Format(os.Stdout)
	}
	if sum.Errors > 0 {
		os.Exit(1)
	}
}

// selfHost brings up a fleet of n sessions (two clients each, so
// queries have real state to report) behind a loopback listener, and
// returns the base URL plus a teardown.
func selfHost(n int) (string, func(), error) {
	m, err := fleet.New(fleet.Config{Sessions: n})
	if err != nil {
		return "", nil, err
	}
	m.StartAll()
	errs := make([]error, n)
	m.Each(func(i int) {
		for j := 0; j < 2; j++ {
			if _, err := clients.Launch(m.Session(i).Server(), clients.Config{
				Instance: fmt.Sprintf("s%dc%d", i, j), Class: "XTerm",
				Width: 120, Height: 90, X: 8 * j, Y: 6 * j,
			}); err != nil {
				errs[i] = err
				return
			}
		}
		m.Pump(i)
	})
	if err := errors.Join(errs...); err != nil {
		m.Close()
		return "", nil, err
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Close()
		return "", nil, err
	}
	srv := &http.Server{Handler: swmhttp.New(m, swmhttp.Config{}).Handler()}
	go srv.Serve(l) //nolint:errcheck // closed by the teardown below
	log.Printf("self-hosted fleet of %d sessions on %s", n, l.Addr())
	return "http://" + l.Addr().String(), func() {
		srv.Close()
		m.Close()
	}, nil
}
