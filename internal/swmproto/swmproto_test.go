package swmproto

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/xproto"
	"repro/internal/xserver"
)

func TestRequestRoundTrip(t *testing.T) {
	in := Request{V: Version, ID: 7, Op: OpQuery, Target: TargetStats, ReplyWindow: 99}
	data, err := EncodeRequest(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeRequest(data)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip: %+v != %+v", out, in)
	}
}

func TestDecodeRequestRejectsVersion(t *testing.T) {
	data, _ := EncodeRequest(Request{V: Version + 1, ID: 3, Op: OpQuery, ReplyWindow: 5})
	req, err := DecodeRequest(data)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("err = %v", err)
	}
	// The partial decode must survive so the server can still answer on
	// the reply window.
	if req.ReplyWindow != 5 || req.ID != 3 {
		t.Errorf("partial request lost: %+v", req)
	}
}

func TestDecodeRequestRejectsGarbage(t *testing.T) {
	if _, err := DecodeRequest([]byte("f.iconify(XTerm)")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestResponseRoundTrip(t *testing.T) {
	in := Response{V: Version, ID: 7, OK: true, Result: json.RawMessage(`{"x":1}`)}
	out, err := DecodeResponse(AppendResponse(nil, &in))
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || !out.OK || string(out.Result) != `{"x":1}` {
		t.Errorf("round trip: %+v", out)
	}
	if _, err := DecodeResponse([]byte(`{"v":99}`)); err == nil {
		t.Error("version mismatch accepted")
	}
}

func TestClientSendPoll(t *testing.T) {
	s := xserver.NewServer()
	conn := s.Connect("test")
	root := s.Screens()[0].Root
	cl, err := NewClient(conn, root)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, ok, err := cl.Poll(); ok || err != nil {
		t.Fatalf("Poll before reply: ok=%v err=%v", ok, err)
	}

	id, err := cl.Query(TargetClients)
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Error("id = 0")
	}

	// Read the request back the way swm would.
	prop, ok, err := conn.GetProperty(root, conn.InternAtom(QueryProperty))
	if err != nil || !ok {
		t.Fatalf("request property: ok=%v err=%v", ok, err)
	}
	req, err := DecodeRequest(prop.Data)
	if err != nil {
		t.Fatal(err)
	}
	if req.ID != id || req.Op != OpQuery || req.Target != TargetClients {
		t.Errorf("request = %+v", req)
	}
	if req.ReplyWindow != uint32(cl.ReplyWindow()) {
		t.Errorf("reply window = %d, want %d", req.ReplyWindow, cl.ReplyWindow())
	}

	// Answer it by hand and poll.
	err = conn.ChangeProperty(cl.ReplyWindow(), conn.InternAtom(ReplyProperty),
		conn.InternAtom("STRING"), 8, xproto.PropModeReplace, AppendResponse(nil, &Response{V: Version, ID: req.ID, OK: true}))
	if err != nil {
		t.Fatal(err)
	}
	resp, ok, err := cl.Poll()
	if err != nil || !ok {
		t.Fatalf("Poll: ok=%v err=%v", ok, err)
	}
	if resp.ID != id || !resp.OK {
		t.Errorf("response = %+v", resp)
	}
	// Consumed: a second poll reports nothing.
	if _, ok, _ := cl.Poll(); ok {
		t.Error("reply not consumed")
	}
}
