package main

import (
	"math"
	"sort"
	"time"
)

// percentile is the nearest-rank percentile of an ascending slice: the
// smallest sample with at least p% of the samples at or below it. It
// returns 0 for an empty slice.
func percentile(sorted []time.Duration, p float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// sortDurations sorts d in place and returns it.
func sortDurations(d []time.Duration) []time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// usec converts a duration to microseconds.
func usec(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median is the middle of values (the mean of the two middle values for
// an even count); 0 for none. values is not modified.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean of values; 0 for none.
func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// quartiles returns the first and third quartile of values by the
// exclusive method, the default of Python's statistics.quantiles(values,
// n=4), so spreads computed here match ones computed there. It needs at
// least two values.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// iqrShare is the distance between the quartiles of values as a share
// of their median: the run-to-run spread the benchmark's bounds are
// judged against.
func iqrShare(values []float64) float64 {
	med := median(values)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / math.Abs(med)
}

// segments aggregates the measured segments of a run: swmload batches,
// or runs of desktop actions. Each figure is the mean of the segment
// figures: throughput, p50 and p99 alike. On a shared host the speed
// the program gets flips every second or so between phases as much as
// 40% apart (desktop segments of one run ranged 66k to 127k ops/s), so
// segment figures are bimodal. A mean follows the mix of phases, where
// a median or quartile jumps between them: over six 20 s runs per
// workload, the run-to-run spread (IQR over median) of the segment mean
// stayed at or under 11% for every workload and figure, where the
// median, either quartile and a 25% trimmed mean each passed 12% on
// some.
type segments struct {
	rate, p50, p99 []float64
}

// minSegments is how many segments a run measures however short it is:
// one, or two when tracing, which alternates traced and plain segments
// and compares them.
func minSegments(trace bool) int {
	if trace {
		return 2
	}
	return 1
}

func (s *segments) add(ops int, elapsed, p50, p99 time.Duration) {
	if elapsed > 0 {
		s.rate = append(s.rate, float64(ops)/elapsed.Seconds())
	}
	s.p50 = append(s.p50, usec(p50))
	s.p99 = append(s.p99, usec(p99))
}

func (s *segments) opsPerSecond() float64 { return mean(s.rate) }

func (s *segments) p50us() float64 { return mean(s.p50) }

func (s *segments) p99us() float64 { return mean(s.p99) }

// selfTime is a layer's own time: its span minus the spans of the
// layers it calls, never below zero.
func selfTime(span time.Duration, children ...time.Duration) time.Duration {
	for _, c := range children {
		span -= c
	}
	if span < 0 {
		return 0
	}
	return span
}

// rawClassifier labels reads that follow a write to their session: a
// read is read-after-write when the last operation seen on its session
// was a write. It is a property of the operation stream alone, so the
// same classifier labels a replayed request plan and the live requests
// a traced run observes. Not safe for concurrent use.
type rawClassifier struct {
	lastWrite []bool
	reads     int
	raw       int
}

func newRawClassifier(sessions int) *rawClassifier {
	return &rawClassifier{lastWrite: make([]bool, sessions)}
}

// observe records one operation on session and reports whether it is a
// read that follows a write.
func (c *rawClassifier) observe(session int, write bool) bool {
	if session < 0 || session >= len(c.lastWrite) {
		return false
	}
	if write {
		c.lastWrite[session] = true
		return false
	}
	c.reads++
	raw := c.lastWrite[session]
	c.lastWrite[session] = false
	if raw {
		c.raw++
	}
	return raw
}

// markAll records a write to every session.
func (c *rawClassifier) markAll() {
	for i := range c.lastWrite {
		c.lastWrite[i] = true
	}
}

// share is the read-after-write share of the reads observed so far.
func (c *rawClassifier) share() float64 {
	if c.reads == 0 {
		return 0
	}
	return float64(c.raw) / float64(c.reads)
}
