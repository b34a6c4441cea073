package swmproto

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/obs"
)

// parity fails the test unless got is byte-identical to
// json.Marshal(v) — the encoder contract.
func parity(t *testing.T, got []byte, v any) {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("json.Marshal: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("encoder diverges from encoding/json\n got: %s\nwant: %s", got, want)
	}
}

// trickyStrings covers every escaping class appendJSONString handles:
// metacharacters, control bytes, the HTML trio, invalid UTF-8, the
// JS line separators, and the unescaped tail (DEL, multibyte runes).
var trickyStrings = []string{
	"",
	"plain ascii",
	`quote " and backslash \`,
	"tab\tnewline\nreturn\r backspace\b formfeed\f",
	"low controls \x00\x01\x1f",
	"html <tag> & entity",
	"del \x7f survives",
	"multibyte héllo ☃ 日本",
	"invalid \xff\xfe utf8",
	"truncated rune \xe2\x80",
	string(rune(0x2028)) + " line seps " + string(rune(0x2029)),
	"mixed \xffé<&> end",
}

func TestAppendJSONStringParity(t *testing.T) {
	for _, s := range trickyStrings {
		parity(t, appendJSONString(nil, s), s)
	}
}

func TestAppendResponseParity(t *testing.T) {
	result, err := json.Marshal(map[string]any{"clients": []int{1, 2}, "note": "a<b&c\xff"})
	if err != nil {
		t.Fatal(err)
	}
	cases := []Response{
		{},
		{V: Version, ID: 42, OK: true},
		{V: Version, ID: 1, OK: true, Result: result},
		{V: Version, ID: 7, OK: false, Code: CodeExecFailed, Error: `unknown function "f.bogus"`},
		{V: Version, ID: 9, OK: false, Code: CodeTimeout, Error: "session 3 did not serve request 9 within 5s"},
	}
	for _, resp := range cases {
		parity(t, AppendResponse(nil, &resp), resp)

		// The HTTP transport's contract is json.Encoder.Encode parity:
		// the envelope plus a trailing newline.
		var wire bytes.Buffer
		if err := json.NewEncoder(&wire).Encode(resp); err != nil {
			t.Fatal(err)
		}
		got := append(AppendResponse(nil, &resp), '\n')
		if !bytes.Equal(got, wire.Bytes()) {
			t.Errorf("envelope wire form diverges\n got: %q\nwant: %q", got, wire.Bytes())
		}
	}
}

// statsParity fails the test unless AppendStats renders reg
// byte-identically to json.Marshal of the StatsResult built from
// reg.Snapshot(), once with lastError set and once without.
func statsParity(t *testing.T, reg *obs.Registry) {
	t.Helper()
	for _, lastError := range []string{"", "X error <Window> & more\n"} {
		parity(t, AppendStats(nil, reg, 2, lastError),
			StatsResult{Metrics: reg.Snapshot(), Degraded: 2, LastError: lastError})
	}
}

func TestAppendStatsParity(t *testing.T) {
	hist := func(reg *obs.Registry, name string) {
		h := reg.Histogram(name, obs.LatencyBounds)
		h.Observe(120)
		h.Observe(5_000_000)
	}
	cases := map[string]func(reg *obs.Registry){
		"empty": func(*obs.Registry) {},
		"counters only": func(reg *obs.Registry) {
			reg.Counter("wm.managed").Add(3)
			reg.Counter("a.first").Inc()
		},
		"gauges only": func(reg *obs.Registry) {
			reg.Gauge("fleet.sessions_live").Set(-2)
			reg.Gauge("adopt.queue")
		},
		"histograms only": func(reg *obs.Registry) {
			hist(reg, "pump.latency_ns")
			reg.Histogram("batch.size", obs.SizeBounds)
		},
		"all kinds, names needing escapes": func(reg *obs.Registry) {
			reg.Counter("wm.managed").Add(3)
			reg.Counter("Z.capital-sorts-first").Inc()
			reg.Counter("weird<name>&").Inc()
			reg.Gauge("g\"quoted\"").Set(1 << 40)
			hist(reg, "h\u2028sep")
		},
	}
	for name, fill := range cases {
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			fill(reg)
			statsParity(t, reg)
		})
	}
}

// TestAppendStatsLateRegistration pins parity for instruments
// registered after a render has already walked the registry: each
// must land at its sorted position, not at the end.
func TestAppendStatsLateRegistration(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("m.middle").Inc()
	reg.Histogram("h.middle", obs.SizeBounds).Observe(3)
	statsParity(t, reg)

	reg.Counter("a.early").Add(5)
	reg.Counter("z.late").Add(6)
	reg.Gauge("g.new").Set(7)
	reg.Histogram("a.hist", obs.SizeBounds).Observe(300)
	statsParity(t, reg)
}

// FuzzStringEncodeParity pins appendJSONString to encoding/json across
// arbitrary byte sequences — the invalid-UTF-8 and escaping corners a
// table can miss.
func FuzzStringEncodeParity(f *testing.F) {
	for _, s := range trickyStrings {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got := appendJSONString(nil, s)
		want, err := json.Marshal(s)
		if err != nil {
			t.Skip() // encoding/json cannot marshal it either
		}
		if !bytes.Equal(got, want) {
			t.Errorf("appendJSONString(%q) = %s, want %s", s, got, want)
		}
	})
}

// FuzzResponseEncodeParity pins the whole envelope: arbitrary header
// fields plus a marshal-produced result payload.
func FuzzResponseEncodeParity(f *testing.F) {
	f.Add(uint64(1), true, "", "", "payload")
	f.Add(uint64(0), false, CodeBadRequest, "bad <body> & worse", "")
	f.Add(^uint64(0), false, "weird\xffcode", "err\nline", "res\x00ult")
	f.Fuzz(func(t *testing.T, id uint64, ok bool, code, errStr, resultStr string) {
		resp := Response{V: Version, ID: id, OK: ok, Code: code, Error: errStr}
		if resultStr != "" {
			raw, err := json.Marshal(resultStr)
			if err != nil {
				t.Skip()
			}
			resp.Result = raw
		}
		parity(t, AppendResponse(nil, &resp), resp)
	})
}
