package swmhttp

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/swmproto"
)

// TestExecBodyLimit pins the exec body bound at its edge: a body of
// exactly maxExecBody bytes is served, and one byte more answers
// bad_request without reaching the session.
func TestExecBodyLimit(t *testing.T) {
	m, err := fleet.New(fleet.Config{Sessions: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	m.StartAll()
	m.Drain()
	h := New(m, Config{}).Handler()

	// body pads a valid exec request to n bytes with an ignored field.
	body := func(n int) string {
		const head, tail = `{"command":"f.nop()","pad":"`, `"}`
		return head + strings.Repeat("A", n-len(head)-len(tail)) + tail
	}
	for _, tc := range []struct {
		n      int
		wantOK bool
	}{
		{maxExecBody, true},
		{maxExecBody + 1, false},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions/0/exec", strings.NewReader(body(tc.n))))
		var resp swmproto.Response
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%d-byte body: response is not an envelope: %v", tc.n, err)
		}
		if tc.wantOK {
			if !resp.OK {
				t.Errorf("%d-byte body = %+v, want ok", tc.n, resp)
			}
			continue
		}
		if resp.OK || resp.Code != swmproto.CodeBadRequest || !strings.Contains(resp.Error, "exec body over") {
			t.Errorf("%d-byte body = %+v, want bad_request for an oversized body", tc.n, resp)
		}
		if want := swmproto.HTTPStatus(swmproto.CodeBadRequest); rec.Code != want {
			t.Errorf("%d-byte body: status %d, want %d", tc.n, rec.Code, want)
		}
	}
}
