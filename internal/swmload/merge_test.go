package swmload

import (
	"testing"
	"time"

	"repro/internal/swmproto"
)

// TestPercentileEdges pins nearest-rank behaviour at the boundaries
// the merge path can produce.
func TestPercentileEdges(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }

	t.Run("empty", func(t *testing.T) {
		if got := percentile(nil, 99); got != 0 {
			t.Errorf("percentile(nil, 99) = %v, want 0", got)
		}
	})
	t.Run("single sample", func(t *testing.T) {
		one := []time.Duration{ms(7)}
		for _, p := range []float64{0, 50, 95, 99, 100} {
			if got := percentile(one, p); got != ms(7) {
				t.Errorf("percentile(single, %v) = %v, want 7ms", p, got)
			}
		}
	})
	t.Run("all equal", func(t *testing.T) {
		same := []time.Duration{ms(3), ms(3), ms(3), ms(3)}
		for _, p := range []float64{0, 50, 99, 100} {
			if got := percentile(same, p); got != ms(3) {
				t.Errorf("percentile(all-equal, %v) = %v, want 3ms", p, got)
			}
		}
	})
	t.Run("nearest rank", func(t *testing.T) {
		sorted := []time.Duration{ms(1), ms(2), ms(3), ms(4), ms(5)}
		cases := []struct {
			p    float64
			want time.Duration
		}{
			{0, ms(1)}, {50, ms(3)}, {95, ms(5)}, {99, ms(5)}, {100, ms(5)},
		}
		for _, c := range cases {
			if got := percentile(sorted, c.p); got != c.want {
				t.Errorf("percentile(1..5ms, %v) = %v, want %v", c.p, got, c.want)
			}
		}
	})
	t.Run("out of range clamps", func(t *testing.T) {
		sorted := []time.Duration{ms(1), ms(2)}
		if got := percentile(sorted, 200); got != ms(2) {
			t.Errorf("percentile(p=200) = %v, want max", got)
		}
	})
}

// TestMergeEdgeCases pins the fold from per-worker tallies to a
// Summary at the shapes Run can hand it: one sample total, all-equal
// latencies, and more workers than samples (most results empty).
func TestMergeEdgeCases(t *testing.T) {
	cfg := Config{Clients: 8}

	t.Run("single sample across many workers", func(t *testing.T) {
		results := make([]workerResult, 8)
		results[3] = workerResult{
			latencies: []time.Duration{5 * time.Millisecond},
			byTarget:  map[string]int{"stats": 1},
		}
		s := merge(cfg, 2, time.Second, results)
		if s.Requests != 1 || s.Errors != 0 {
			t.Errorf("requests/errors = %d/%d, want 1/0", s.Requests, s.Errors)
		}
		if s.P50 != 5*time.Millisecond || s.P99 != 5*time.Millisecond || s.Max != 5*time.Millisecond {
			t.Errorf("single-sample percentiles: p50=%v p99=%v max=%v, want all 5ms", s.P50, s.P99, s.Max)
		}
		if s.QPS != 1 {
			t.Errorf("qps = %v, want 1", s.QPS)
		}
	})

	t.Run("all equal values", func(t *testing.T) {
		results := make([]workerResult, 4)
		for w := range results {
			results[w] = workerResult{
				latencies: []time.Duration{time.Millisecond, time.Millisecond},
				byTarget:  map[string]int{"desktop": 2},
			}
		}
		s := merge(cfg, 1, time.Second, results)
		if s.Requests != 8 {
			t.Errorf("requests = %d, want 8", s.Requests)
		}
		if s.P50 != time.Millisecond || s.P95 != time.Millisecond || s.P99 != time.Millisecond || s.Max != time.Millisecond {
			t.Errorf("all-equal percentiles not all 1ms: p50=%v p95=%v p99=%v max=%v", s.P50, s.P95, s.P99, s.Max)
		}
	})

	t.Run("more workers than samples", func(t *testing.T) {
		// Run gives trailing workers zero requests when
		// Clients > Requests; their zero-value results must fold away.
		results := make([]workerResult, 16)
		results[0] = workerResult{
			latencies: []time.Duration{2 * time.Millisecond},
			byTarget:  map[string]int{"clients": 1},
		}
		results[1] = workerResult{
			latencies: []time.Duration{4 * time.Millisecond},
			byTarget:  map[string]int{"trace": 1},
			errors:    1,
			byCode:    map[string]int{"timeout": 1},
		}
		s := merge(Config{Clients: 16}, 1, time.Second, results)
		if s.Requests != 2 || s.Errors != 1 {
			t.Errorf("requests/errors = %d/%d, want 2/1", s.Requests, s.Errors)
		}
		// Nearest-rank rounds the two-sample midpoint up.
		if s.P50 != 4*time.Millisecond || s.Max != 4*time.Millisecond {
			t.Errorf("p50=%v max=%v, want 4ms/4ms", s.P50, s.Max)
		}
		if s.ByCode["timeout"] != 1 {
			t.Errorf("byCode = %v", s.ByCode)
		}
	})

	t.Run("transport failures have no latency sample", func(t *testing.T) {
		results := []workerResult{{
			byTarget: map[string]int{"stats": 3},
			errors:   3,
			byCode:   map[string]int{"transport": 3},
		}}
		s := merge(Config{Clients: 1}, 1, time.Second, results)
		if s.Requests != 3 || s.Errors != 3 {
			t.Errorf("requests/errors = %d/%d, want 3/3", s.Requests, s.Errors)
		}
		if s.P50 != 0 || s.Max != 0 || s.QPS != 0 {
			t.Errorf("latency stats over zero samples: p50=%v max=%v qps=%v", s.P50, s.Max, s.QPS)
		}
	})
}

// TestFastEnvelope pins the prefix classifier against real encoder
// output and the fallbacks that must punt to the full decoder.
func TestFastEnvelope(t *testing.T) {
	env := func(resp swmproto.Response) []byte {
		return swmproto.AppendResponse(nil, &resp)
	}
	cases := []struct {
		name        string
		body        []byte
		ok, matched bool
	}{
		{"ok envelope", env(swmproto.Response{V: swmproto.Version, ID: 7, OK: true}), true, true},
		{"ok with result", append(env(swmproto.Response{V: swmproto.Version, ID: 123456, OK: true, Result: []byte(`{"clients":null}`)}), '\n'), true, true},
		{"error envelope", env(swmproto.Response{V: swmproto.Version, ID: 9, OK: false, Code: swmproto.CodeExecFailed, Error: "boom"}), false, true},
		{"empty", nil, false, false},
		{"wrong version", []byte(`{"v":2,"id":1,"ok":true}`), false, false},
		{"missing id digits", []byte(`{"v":1,"id":,"ok":true}`), false, false},
		{"reordered fields", []byte(`{"id":1,"v":1,"ok":true}`), false, false},
		{"html page", []byte("<html>not json</html>"), false, false},
		{"truncated after id", []byte(`{"v":1,"id":12`), false, false},
	}
	for _, c := range cases {
		ok, matched := fastEnvelope(c.body)
		if ok != c.ok || matched != c.matched {
			t.Errorf("%s: fastEnvelope(%q) = (%v, %v), want (%v, %v)",
				c.name, c.body, ok, matched, c.ok, c.matched)
		}
	}
}

// TestParseResponseHead pins the raw client's header scan against the
// shapes a stdlib server emits and the malformed ones it must refuse.
func TestParseResponseHead(t *testing.T) {
	cases := []struct {
		name          string
		head          string
		status, cl    int
		closing, okay bool
	}{
		{"typical envelope response",
			"HTTP/1.1 200 OK\r\nContent-Type: application/json; charset=utf-8\r\nCache-Control: no-store\r\nContent-Length: 142\r\nDate: Thu, 01 Jan 1970 00:00:00 GMT\r\n\r\n",
			200, 142, false, true},
		{"error status keeps the length",
			"HTTP/1.1 404 Not Found\r\nContent-Length: 87\r\n\r\n", 404, 87, false, true},
		{"connection close honoured",
			"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nConnection: close\r\n\r\n", 200, 5, true, true},
		{"case-insensitive header names",
			"HTTP/1.1 200 OK\r\ncontent-length: 9\r\nCONNECTION: Close\r\n\r\n", 200, 9, true, true},
		{"missing content-length reported as -1",
			"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n", 200, -1, false, true},
		{"garbage status line refused",
			"ICY 200\r\nContent-Length: x\r\n\r\n", 0, -1, false, false},
		{"non-numeric length refused",
			"HTTP/1.1 200 OK\r\nContent-Length: many\r\n\r\n", 0, -1, false, false},
		{"empty refused", "", 0, -1, false, false},
	}
	for _, c := range cases {
		status, cl, closing, ok := parseResponseHead([]byte(c.head))
		if ok != c.okay {
			t.Errorf("%s: ok = %v, want %v", c.name, ok, c.okay)
			continue
		}
		if !ok {
			continue
		}
		if status != c.status || cl != c.cl || closing != c.closing {
			t.Errorf("%s: (status, cl, closing) = (%d, %d, %v), want (%d, %d, %v)",
				c.name, status, cl, closing, c.status, c.cl, c.closing)
		}
	}
}
