package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/swmload"
)

func TestPercentileNearestRank(t *testing.T) {
	var d []time.Duration
	for i := 1; i <= 10; i++ {
		d = append(d, time.Duration(i))
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{
		{0, 1}, {10, 1}, {11, 2}, {50, 5}, {51, 6}, {90, 9}, {99, 10}, {100, 10},
	} {
		if got := percentile(d, c.p); got != c.want {
			t.Errorf("p%v of 1..10 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
	if got := percentile([]time.Duration{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %v, want 7", got)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0}, {[]float64{3}, 3}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 {
		t.Errorf("median reordered its input: %v", in)
	}
}

// The expected quartiles are what Python's statistics.quantiles(v, n=4)
// returns for the same values.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 4, 3, 2, 1}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10.5, 9.5, 10, 11, 9, 10.25, 9.75, 10.1, 9.9, 12}, 9.6875, 10.625},
	} {
		q1, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestIQRShare(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := iqrShare(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
	if got := iqrShare([]float64{4, 4, 4, 4}); got != 0 {
		t.Errorf("iqrShare of identical runs = %v, want 0", got)
	}
}

func TestSelfTime(t *testing.T) {
	if got := selfTime(10*time.Microsecond, 3*time.Microsecond, 2*time.Microsecond); got != 5*time.Microsecond {
		t.Errorf("selfTime = %v, want 5µs", got)
	}
	if got := selfTime(time.Microsecond, 2*time.Microsecond); got != 0 {
		t.Errorf("selfTime below zero = %v, want 0", got)
	}
	if got := selfTime(time.Microsecond); got != time.Microsecond {
		t.Errorf("selfTime with no children = %v, want the span", got)
	}
}

func TestRawClassifier(t *testing.T) {
	type op struct {
		session int
		write   bool
		raw     bool // expected label
	}
	ops := []op{
		{0, false, false}, // first read, nothing written
		{0, true, false},  // write
		{1, false, false}, // another session is unaffected
		{0, false, true},  // first read after the write
		{0, false, false}, // second read sees the cache refilled
		{1, true, false},
		{1, true, false}, // two writes, then
		{1, false, true}, // one cold read
		{0, true, false},
		{5, false, false}, // out of range: ignored
	}
	c := newRawClassifier(2)
	for i, o := range ops {
		if got := c.observe(o.session, o.write); got != o.raw {
			t.Errorf("op %d (%+v): labelled %v", i, o, got)
		}
	}
	if c.reads != 5 || c.raw != 2 {
		t.Errorf("counted %d reads, %d read-after-write; want 5, 2", c.reads, c.raw)
	}
	if got, want := c.share(), 2.0/5; got != want {
		t.Errorf("share = %v, want %v", got, want)
	}
	c.markAll()
	if !c.observe(0, false) || !c.observe(1, false) {
		t.Error("markAll did not make the next read of every session read-after-write")
	}
}

func TestReplayPlanShares(t *testing.T) {
	cfg := swmload.Config{Clients: 2, Requests: 30000, Seed: 7}
	c := newRawClassifier(64)
	replayPlan(c, cfg, 64)
	if c.reads != 30000 || c.raw != 0 {
		t.Errorf("read-only plan: %d reads, %d read-after-write; want 30000, 0", c.reads, c.raw)
	}
	cfg.ExecEvery = 3
	c = newRawClassifier(64)
	replayPlan(c, cfg, 64)
	if c.reads != 20000 {
		t.Errorf("exec-every-3 plan: %d reads, want 20000", c.reads)
	}
	// Each read's previous op on its session is a write with
	// probability one third.
	if s := c.share(); s < 0.3 || s > 0.37 {
		t.Errorf("exec-every-3 read-after-write share %v, want about 1/3", s)
	}
}

func TestEnvelopeID(t *testing.T) {
	for _, c := range []struct {
		in string
		id uint64
		ok bool
	}{
		{`{"v":1,"id":12345,"ok":true}`, 12345, true},
		{`{"v":1,"id":0,"ok":false,"code":"x"}`, 0, true},
		{`{"v":1,"id":`, 0, false},
		{`{"sessions":[]}`, 0, false},
		{`{"sessions":[{"id":0,"state":"running"}]}`, 0, false},
		{``, 0, false},
	} {
		id, ok := envelopeID([]byte(c.in))
		if id != c.id || ok != c.ok {
			t.Errorf("envelopeID(%q) = %d, %v; want %d, %v", c.in, id, ok, c.id, c.ok)
		}
	}
}

func TestLayerSumCheck(t *testing.T) {
	r := &report{record: map[string]string{}}
	r.layerSum(10, map[string]float64{"a": 6, "b": 3})
	if r.failed != 0 {
		t.Errorf("layers within the margin failed the check: %v", r.problems)
	}
	if got := rowValue(r, "unexplained_us"); got != 1 {
		t.Errorf("unexplained_us = %v, want 1", got)
	}
	r = &report{record: map[string]string{}}
	r.layerSum(10, map[string]float64{"a": 5})
	if r.failed != 1 {
		t.Errorf("layers summing to half the whole passed the check")
	}
}

func rowValue(r *report, name string) float64 {
	for _, row := range r.rows {
		if row.name == name {
			return row.value
		}
	}
	return math.NaN()
}

func TestSegments(t *testing.T) {
	var s segments
	for _, c := range []struct{ ops, p50, p99 int }{
		{100, 10, 100}, {300, 20, 900}, {200, 30, 200}, {400, 40, 300}, {500, 50, 400},
	} {
		s.add(c.ops, time.Second, time.Duration(c.p50)*time.Microsecond, time.Duration(c.p99)*time.Microsecond)
	}
	if got := s.opsPerSecond(); got != 300 {
		t.Errorf("opsPerSecond = %v, want the mean segment rate 300", got)
	}
	if got := s.p50us(); got != 30 {
		t.Errorf("p50us = %v, want the mean 30", got)
	}
	if got := s.p99us(); got != 380 {
		t.Errorf("p99us = %v, want the mean 380", got)
	}
	var empty segments
	if empty.opsPerSecond() != 0 || empty.p50us() != 0 || empty.p99us() != 0 {
		t.Error("an empty aggregate reports non-zero figures")
	}
}
