package swmhttp_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/fleet"
	"repro/internal/swmhttp"
	"repro/internal/swmproto"
)

// fuzzHandler is one shared fleet + transport for the whole fuzz run —
// building a WM per input would drown the fuzzer in setup. It leaks at
// process exit, which is fine for a test binary.
var (
	fuzzOnce sync.Once
	fuzzMux  http.Handler
)

func fuzzStack(t testing.TB) http.Handler {
	fuzzOnce.Do(func() {
		m, err := fleet.New(fleet.Config{Sessions: 1, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		m.StartAll()
		m.Drain()
		fuzzMux = swmhttp.New(m, swmhttp.Config{}).Handler()
	})
	return fuzzMux
}

// execBodySeeds is the exec-body seed corpus both fuzz targets start
// from: malformed and hostile bodies, and valid ones.
var execBodySeeds = []string{
	``,
	`{`,
	`{"command":`,
	`{"command": 12}`,
	`{"command": null}`,
	`{"command": ["f.iconify"]}`,
	`{"screen": "zero", "command": "f.nop()"}`,
	`null`,
	`[]`,
	`"just a string"`,
	`{"command": "f.nop()", "command": "f.quit()"}`,
	"\x00\x01\x02\xff",
	`{"command": "` + strings.Repeat("A", 4000) + `"}`,
	strings.Repeat("[", 2000),
	`{"command": "f.nop()"} trailing garbage`,
	`{"command": "f.iconify(XTerm)"}`,
}

// FuzzExecEndpoint drives arbitrary bytes at the POST exec decode path.
// The contract under fuzzing: the transport degrades — every input
// answers with a decodable protocol envelope, and a malformed body is a
// client error (bad_request family), never a panic and never an
// internal-code 500.
func FuzzExecEndpoint(f *testing.F) {
	for _, s := range execBodySeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		h := fuzzStack(t)
		req := httptest.NewRequest("POST", "/v1/sessions/0/exec", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		var resp swmproto.Response
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("input %q: response is not an envelope: %v\n%s", body, err, rec.Body.Bytes())
		}
		if rec.Code == http.StatusInternalServerError || resp.Code == swmproto.CodeInternal {
			t.Fatalf("input %q: decode path hit the internal class: %d %+v", body, rec.Code, resp)
		}
		if !resp.OK && resp.Code == "" {
			t.Fatalf("input %q: error without a code: %+v", body, resp)
		}
	})
}

// FuzzDecodeExecBody checks the exec body scan against json.Unmarshal:
// for every input the two agree on Command, on Screen and on whether
// decoding fails. The seeds add the canonical body json.Marshal
// writes and near misses of it: escapes, non-ASCII, an empty command,
// whitespace, other keys and trailing bytes.
func FuzzDecodeExecBody(f *testing.F) {
	for _, s := range execBodySeeds {
		f.Add([]byte(s))
	}
	for _, s := range []string{
		`{"command":"f.circleup"}`,
		`{"command":"f.iconify(XTerm) f.raise"}`,
		`{"command":"f.setlabel(title=a b)"}`,
		`{"command":"f.nop","screen":1}`,
		`{"command":""}`,
		`{"command":"\""}`,
		`{"command":"a\"}`,
		`{"command":"a\\"}`,
		`{"command":"a\u0041"}`,
		`{"command":"a\"}"}`,
		`{"command":"a","command":"b"}`,
		`{"command":"a","x":"b"}`,
		`{"command":"a"}}`,
		`{"command":"a"} `,
		` {"command":"a"}`,
		`{"command": "a"}`,
		`{"Command":"a"}`,
		`{"command":"` + "\t" + `"}`,
		`{"command":"` + "\x7f" + `"}`,
		`{"command":"é"}`,
		`{"command":"` + "\xff" + `"}`,
		`{"command":"<&>"}`,
		`{"command":"}`,
		`{"command":""}"}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gotErr := swmhttp.DecodeExecBody(body)
		var want swmhttp.ExecBody
		wantErr := json.Unmarshal(body, &want)
		if (gotErr != nil) != (wantErr != nil) || got != want {
			t.Fatalf("body %q: scan = %+v, %v; json.Unmarshal = %+v, %v", body, got, gotErr, want, wantErr)
		}
	})
}
