// Hand-rolled append encoders for the two response shapes that earn
// them. Every other payload (clients, desktop, trace) goes through
// encoding/json.Marshal: they render only on a cache miss, where a
// hand-rolled encoder measured no faster end to end.
//
//   - AppendResponse writes the envelope of every answer on both
//     transports: each HTTP answer, warm cache hits included, into a
//     pooled buffer with no allocation, and each SWM_REPLY property.
//   - AppendStats streams the stats payload straight off the
//     registry's sorted walk. Marshalling Registry.Snapshot() instead
//     costs a ~90 µs render on every read after a write.
//
// The parity contract: for every value these functions accept, the
// output is byte-identical to encoding/json.Marshal of the same value
// (and AppendResponse plus a trailing '\n' matches
// json.Encoder.Encode). The contract is pinned by golden tests and a
// fuzzer in encode_test.go; any divergence is a bug here, never a new
// dialect. Two consequences worth naming:
//
//   - Strings use encoding/json's HTML-escaping form ('<', '>', '&'
//     become \u003c, \u003e, \u0026), invalid UTF-8 collapses to
//     \ufffd, and U+2028/U+2029 are escaped — exactly the default
//     Marshal behavior the property transport has always produced.
//   - AppendResponse copies Response.Result verbatim, so the envelope
//     matches Marshal only when Result holds compact marshal-produced
//     JSON. Every producer in this repository satisfies that (results
//     come from Marshal or from AppendStats); the fuzzer generates
//     results the same way.
package swmproto

import (
	"strconv"
	"unicode/utf8"

	"repro/internal/obs"
)

const hexDigits = "0123456789abcdef"

// jsonSafe marks the ASCII bytes encoding/json emits verbatim inside a
// string literal with HTML escaping on: everything from 0x20 up except
// the JSON metacharacters '"' and '\\' and the HTML trio '<' '>' '&'.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		switch b {
		case '"', '\\', '<', '>', '&':
		default:
			t[b] = true
		}
	}
	return
}()

// appendJSONString appends s as a JSON string literal, byte-identical
// to encoding/json.Marshal(s).
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				// Control characters and the HTML trio take the
				// \u00xx form (lowercase hex, as encoding/json).
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, "true"...)
	}
	return append(dst, "false"...)
}

// AppendResponse appends the envelope's JSON form. With a trailing
// '\n' added by the caller it is byte-identical to what
// json.NewEncoder(w).Encode(resp) writes, provided Result is compact
// marshal-produced JSON (see the package comment).
func AppendResponse(dst []byte, resp *Response) []byte {
	dst = append(dst, `{"v":`...)
	dst = strconv.AppendInt(dst, int64(resp.V), 10)
	dst = append(dst, `,"id":`...)
	dst = strconv.AppendUint(dst, resp.ID, 10)
	dst = append(dst, `,"ok":`...)
	dst = appendBool(dst, resp.OK)
	if resp.Code != "" {
		dst = append(dst, `,"code":`...)
		dst = appendJSONString(dst, resp.Code)
	}
	if resp.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = appendJSONString(dst, resp.Error)
	}
	if len(resp.Result) > 0 {
		dst = append(dst, `,"result":`...)
		dst = append(dst, resp.Result...)
	}
	return append(dst, '}')
}

// AppendStats appends the TargetStats payload for reg, byte-identical
// to json.Marshal(StatsResult{Metrics: reg.Snapshot(), Degraded:
// degraded, LastError: lastError}). It streams straight off
// reg.Visit, whose name-sorted walk is already encoding/json's map key
// order, so no snapshot maps are built and no keys are sorted.
func AppendStats(dst []byte, reg *obs.Registry, degraded int, lastError string) []byte {
	w := &statsWriter{dst: dst}
	reg.Visit(w)
	w.open(len(statsSections))
	dst = append(w.dst, `,"degraded":`...)
	dst = strconv.AppendInt(dst, int64(degraded), 10)
	if lastError != "" {
		dst = append(dst, `,"last_error":`...)
		dst = appendJSONString(dst, lastError)
	}
	return append(dst, '}')
}

// statsSections are the fixed bytes in front of each instrument kind's
// object, and (last) the bytes that close the metrics object.
var statsSections = [...]string{`{"metrics":{"counters":{`, `},"gauges":{`, `},"histograms":{`, `}}`}

// statsWriter is the obs.Visitor behind AppendStats. Visit calls
// arrive kind by kind, but a kind with no instruments makes no call at
// all, so each call first emits every section header it has skipped.
type statsWriter struct {
	dst     []byte
	written int  // statsSections emitted so far
	first   bool // no entry yet in the open section
}

// open emits statsSections up to and including statsSections[n-1].
func (w *statsWriter) open(n int) {
	for ; w.written < n; w.written++ {
		w.dst = append(w.dst, statsSections[w.written]...)
		w.first = true
	}
}

// key opens section n (1 counters, 2 gauges, 3 histograms) and appends
// name as the next member's key.
func (w *statsWriter) key(n int, name string) {
	w.open(n)
	if !w.first {
		w.dst = append(w.dst, ',')
	}
	w.first = false
	w.dst = appendJSONString(w.dst, name)
	w.dst = append(w.dst, ':')
}

func (w *statsWriter) VisitCounter(name string, value int64) {
	w.key(1, name)
	w.dst = strconv.AppendInt(w.dst, value, 10)
}

func (w *statsWriter) VisitGauge(name string, value int64) {
	w.key(2, name)
	w.dst = strconv.AppendInt(w.dst, value, 10)
}

// VisitHistogram appends the obs.HistogramSnapshot form of h.
func (w *statsWriter) VisitHistogram(name string, h *obs.Histogram) {
	w.key(3, name)
	w.dst = append(w.dst, `{"count":`...)
	w.dst = strconv.AppendInt(w.dst, h.Count(), 10)
	w.dst = append(w.dst, `,"sum":`...)
	w.dst = strconv.AppendInt(w.dst, h.Sum(), 10)
	w.dst = append(w.dst, `,"buckets":[`...)
	sep := false
	h.Range(func(upperBound, count int64) {
		if sep {
			w.dst = append(w.dst, ',')
		}
		sep = true
		w.dst = append(w.dst, `{"le":`...)
		w.dst = strconv.AppendInt(w.dst, upperBound, 10)
		w.dst = append(w.dst, `,"count":`...)
		w.dst = strconv.AppendInt(w.dst, count, 10)
		w.dst = append(w.dst, '}')
	})
	w.dst = append(w.dst, "]}"...)
}
