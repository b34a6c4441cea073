package fleet

import (
	"bytes"
	"encoding/json"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/swmproto"
)

func queryResult(t *testing.T, m *Manager, id int, target string) []byte {
	t.Helper()
	resp := m.ServeSession(id, swmproto.Request{Op: swmproto.OpQuery, Target: target})
	if !resp.OK {
		t.Fatalf("%s query failed: %+v", target, resp)
	}
	return resp.Result
}

// sameBacking reports whether two non-empty byte slices alias the same
// storage — the observable difference between a cache hit (the
// published payload served twice) and a fresh render.
func sameBacking(a, b []byte) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// TestQueryCacheWarmHit pins the tentpole: with no mutation between
// them, repeated queries serve the identical pre-rendered bytes — the
// same backing array, not merely equal content — for every cacheable
// target, trace included.
func TestQueryCacheWarmHit(t *testing.T) {
	m := serveFleet(t, 1)
	launchClients(t, m, 0, 2)
	m.Drain()

	for _, target := range []string{
		swmproto.TargetStats, swmproto.TargetClients,
		swmproto.TargetDesktop, swmproto.TargetTrace,
	} {
		first := queryResult(t, m, 0, target)
		second := queryResult(t, m, 0, target)
		if !sameBacking(first, second) {
			t.Errorf("%s: repeat query re-rendered instead of serving the cached payload", target)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("%s: cached bytes mutated between serves", target)
		}
	}
}

// TestQueryCacheMissRendersOnlyItsTarget pins the per-target render: a
// miss fills its own slot and no other, and a later miss on another
// target at the same generation leaves the published payloads alone.
func TestQueryCacheMissRendersOnlyItsTarget(t *testing.T) {
	m := serveFleet(t, 1)
	s := m.Session(0)

	queryResult(t, m, 0, swmproto.TargetStats)
	stats := s.cache[slotStats].Load()
	if stats == nil {
		t.Fatal("stats miss did not publish its payload")
	}
	for _, slot := range []int{slotClients, slotDesktop, slotTrace} {
		if s.cache[slot].Load() != nil {
			t.Errorf("stats miss rendered slot %d", slot)
		}
	}

	queryResult(t, m, 0, swmproto.TargetDesktop)
	if s.cache[slotDesktop].Load() == nil {
		t.Error("desktop miss did not publish its payload")
	}
	if s.cache[slotStats].Load() != stats {
		t.Error("desktop miss replaced the stats payload")
	}
}

// TestQueryCacheInvalidation pins the generation protocol end to end:
// every mutating entry point — pump, exec (both transports' form), and
// restart — forces the next query to re-render, and the re-rendered
// content reflects the mutation.
func TestQueryCacheInvalidation(t *testing.T) {
	m := serveFleet(t, 1)
	launchClients(t, m, 0, 1)
	m.Drain()

	cached := queryResult(t, m, 0, swmproto.TargetClients)

	// A protocol exec bumps the generation even when the command is a
	// no-op: invalidation is conservative by design.
	if resp := m.ServeSession(0, swmproto.Request{Op: swmproto.OpExec, Command: "f.nop"}); !resp.OK {
		t.Fatalf("exec failed: %+v", resp)
	}
	after := queryResult(t, m, 0, swmproto.TargetClients)
	if sameBacking(cached, after) {
		t.Error("exec did not invalidate the clients payload")
	}

	// A pump that manages a new window must be visible to the next
	// query — the staleness bound the cache promises.
	launchClients(t, m, 0, 1)
	m.Drain()
	refreshed := queryResult(t, m, 0, swmproto.TargetClients)
	if sameBacking(after, refreshed) {
		t.Error("pump did not invalidate the clients payload")
	}
	var res swmproto.ClientsResult
	if err := json.Unmarshal(refreshed, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Clients) != 2 {
		t.Errorf("post-pump query shows %d clients, want 2", len(res.Clients))
	}

	// Restart swaps the WM generation entirely; stale payloads from
	// the old WM must not survive into the new one.
	m.Restart(0)
	m.Drain()
	adopted := queryResult(t, m, 0, swmproto.TargetClients)
	if sameBacking(refreshed, adopted) {
		t.Error("restart did not invalidate the clients payload")
	}
	if err := json.Unmarshal(adopted, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Clients) != 2 {
		t.Errorf("post-restart query shows %d clients, want 2 adopted", len(res.Clients))
	}
}

// TestQueryCacheParityWithLaneRender pins that warm bytes are
// byte-identical to what an uncached lane render produces for the same
// state — the cache may never change the payload, only its cost.
func TestQueryCacheParityWithLaneRender(t *testing.T) {
	m := serveFleet(t, 1)
	launchClients(t, m, 0, 3)
	m.Drain()

	warm := queryResult(t, m, 0, swmproto.TargetClients)
	warm2 := queryResult(t, m, 0, swmproto.TargetClients)
	if !sameBacking(warm, warm2) {
		t.Fatal("second query was not a cache hit")
	}

	var fresh []byte
	m.Exec(0, func(wm *core.WM) {
		resp := wm.ServeProto(swmproto.Request{Op: swmproto.OpQuery, Target: swmproto.TargetClients})
		fresh = resp.Result
	})
	m.Drain()
	if !bytes.Equal(warm, fresh) {
		t.Errorf("cached payload diverges from a direct lane render\ncached: %s\n fresh: %s", warm, fresh)
	}
}

// TestQueryCacheNonDefaultScreen pins the bypass: queries addressed to
// a non-default screen never serve from (or populate) the cache — the
// payload is screen-dependent and only screen 0 is cached.
func TestQueryCacheNonDefaultScreen(t *testing.T) {
	m := serveFleet(t, 1)
	// The fixture fleet has one screen, so screen 1 must answer
	// bad_request from the lane, proving the request bypassed the
	// warm path (which only ever answers OK).
	queryResult(t, m, 0, swmproto.TargetDesktop) // warm the cache
	resp := m.ServeSession(0, swmproto.Request{Op: swmproto.OpQuery, Target: swmproto.TargetDesktop, Screen: 1})
	if resp.OK || resp.Code != swmproto.CodeBadRequest {
		t.Errorf("screen-1 query = %+v, want bad_request from the lane", resp)
	}
}

// TestServeNeverStale checks DESIGN.md §15's "never a stale serve" as
// a property. A writer moves the session's state forward through
// ServeSession execs and, after each one returns, records the state it
// reached. Readers race it through the snapshot cache: each notes the
// last recorded state before it queries, and the answer must not show
// an older one. The state is the WM's xreq.total counter, which every
// f.raise moves and no query does, read back through the stats target.
func TestServeNeverStale(t *testing.T) {
	const readers, steps = 4, 2000
	m := serveFleet(t, 1)
	launchClients(t, m, 0, 1)
	xreq := m.SessionRegistry(0).Counter("xreq.total")
	raise := swmproto.Request{Op: swmproto.OpExec, Command: "f.raise(XTerm)"}
	stats := swmproto.Request{Op: swmproto.OpQuery, Target: swmproto.TargetStats}

	var reached atomic.Int64
	reached.Store(xreq.Value())
	done := make(chan struct{})
	var wg sync.WaitGroup
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				want := reached.Load()
				resp := m.ServeSession(0, stats)
				if !resp.OK {
					t.Errorf("stats query: %+v", resp)
					return
				}
				if got := servedCounter(t, resp.Result, "xreq.total"); got < want {
					t.Errorf("served xreq.total = %d after the writer had reached %d: a stale serve", got, want)
					return
				}
			}
		}()
	}
	for range steps {
		if resp := m.ServeSession(0, raise); !resp.OK {
			t.Errorf("raise: %+v", resp)
			break
		}
		reached.Store(xreq.Value())
	}
	close(done)
	wg.Wait()
}

// servedCounter reads one counter out of a stats payload without
// decoding the rest of it.
func servedCounter(t *testing.T, stats []byte, name string) int64 {
	t.Helper()
	key := []byte(`"` + name + `":`)
	i := bytes.Index(stats, key)
	if i < 0 {
		t.Fatalf("stats payload has no %s counter", name)
	}
	rest := stats[i+len(key):]
	end := bytes.IndexAny(rest, ",}")
	v, err := strconv.ParseInt(string(rest[:end]), 10, 64)
	if err != nil {
		t.Fatalf("%s counter: %v", name, err)
	}
	return v
}
