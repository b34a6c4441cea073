package swmload_test

import (
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/clients"
	"repro/internal/fleet"
	"repro/internal/swmhttp"
	"repro/internal/swmload"
	"repro/internal/swmproto"
)

func loadStack(t *testing.T, sessions int) (*fleet.Manager, *httptest.Server) {
	t.Helper()
	m, err := fleet.New(fleet.Config{Sessions: sessions, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	m.StartAll()
	m.Drain()
	for i := 0; i < sessions; i++ {
		if _, err := clients.Launch(m.Session(i).Server(), clients.Config{
			Instance: fmt.Sprintf("s%d", i), Class: "XTerm", Width: 100, Height: 80,
		}); err != nil {
			t.Fatal(err)
		}
	}
	m.PumpAll()
	m.Drain()
	ts := httptest.NewServer(swmhttp.New(m, swmhttp.Config{}).Handler())
	t.Cleanup(ts.Close)
	return m, ts
}

func TestRunAgainstFleet(t *testing.T) {
	_, ts := loadStack(t, 4)
	sum, err := swmload.Run(swmload.Config{
		BaseURL:   ts.URL,
		Clients:   8,
		Requests:  200,
		Seed:      7,
		ExecEvery: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Requests != 200 {
		t.Errorf("requests = %d, want 200", sum.Requests)
	}
	if sum.Errors != 0 {
		t.Errorf("errors = %d (%v)", sum.Errors, sum.ByCode)
	}
	if sum.Sessions != 4 || sum.Clients != 8 {
		t.Errorf("sessions/clients = %d/%d", sum.Sessions, sum.Clients)
	}
	// Every 5th request per worker is an exec: 200/5 = 40.
	if sum.ByTarget["exec"] != 40 {
		t.Errorf("execs = %d, want 40 (%v)", sum.ByTarget["exec"], sum.ByTarget)
	}
	total := 0
	for _, n := range sum.ByTarget {
		total += n
	}
	if total != 200 {
		t.Errorf("ByTarget sums to %d (%v)", total, sum.ByTarget)
	}
	if sum.P50 <= 0 || sum.P99 < sum.P50 || sum.Max < sum.P99 {
		t.Errorf("percentiles not ordered: p50=%v p99=%v max=%v", sum.P50, sum.P99, sum.Max)
	}
	if sum.QPS <= 0 {
		t.Errorf("qps = %f", sum.QPS)
	}
}

// TestDeterministicMix pins the reproducibility contract: the request
// mix depends only on the seed, never on scheduling.
func TestDeterministicMix(t *testing.T) {
	_, ts := loadStack(t, 2)
	run := func() map[string]int {
		sum, err := swmload.Run(swmload.Config{
			BaseURL: ts.URL, Clients: 4, Requests: 120, Seed: 42, ExecEvery: 6,
		})
		if err != nil {
			t.Fatal(err)
		}
		if sum.Errors != 0 {
			t.Fatalf("errors = %d (%v)", sum.Errors, sum.ByCode)
		}
		return sum.ByTarget
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different mix: %v vs %v", a, b)
	}
	c, err := swmload.Run(swmload.Config{
		BaseURL: ts.URL, Clients: 4, Requests: 120, Seed: 43, ExecEvery: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c.ByTarget) {
		t.Errorf("different seeds produced the identical mix: %v", a)
	}
}

// TestFailedRequestsAreCounted drives traffic while a session is down:
// the error-rate machinery must name the failure class.
func TestFailedRequestsAreCounted(t *testing.T) {
	m, ts := loadStack(t, 2)
	sum, err := swmload.Run(swmload.Config{
		BaseURL: ts.URL, Clients: 2, Requests: 40, Seed: 3,
		ExecEvery: 4, ExecCommand: "f.bogus",
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Errors != sum.ByTarget["exec"] {
		t.Errorf("errors = %d, want every exec (%d) to fail", sum.Errors, sum.ByTarget["exec"])
	}
	if sum.ByCode[swmproto.CodeExecFailed] != sum.Errors {
		t.Errorf("ByCode = %v", sum.ByCode)
	}

	// A dead fleet is refused up front, not measured.
	m.StopAll()
	m.Drain()
	if _, err := swmload.Run(swmload.Config{BaseURL: ts.URL, Clients: 1, Requests: 1}); err == nil {
		t.Error("load against a dead fleet did not error")
	}
}
