package obs

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestTraceDisabledByDefault(t *testing.T) {
	tr := NewTrace(8)
	if tr.Enabled() {
		t.Fatal("trace enabled at birth")
	}
	tr.Record(KindPan, OpFor("pan"), 0, 1, 2)
	if tr.Len() != 0 {
		t.Errorf("disabled trace recorded %d entries", tr.Len())
	}
}

func TestTraceRecordAndSnapshot(t *testing.T) {
	tr := NewTrace(8)
	tr.Enable()
	tr.Record(KindManage, OpFor("manage"), 42, 0, 0)
	tr.Record(KindPan, OpFor("pan"), 0, 256, 128)
	entries := tr.Snapshot()
	if len(entries) != 2 {
		t.Fatalf("len = %d, want 2", len(entries))
	}
	if entries[0].Kind != KindManage || entries[0].Window != 42 || entries[0].Seq != 1 {
		t.Errorf("entry 0 = %+v", entries[0])
	}
	if entries[1].Kind != KindPan || entries[1].Arg1 != 256 || entries[1].Arg2 != 128 {
		t.Errorf("entry 1 = %+v", entries[1])
	}
	if entries[0].Time == 0 || entries[1].Time < entries[0].Time {
		t.Errorf("timestamps not monotone: %d then %d", entries[0].Time, entries[1].Time)
	}
}

func TestTraceWraparound(t *testing.T) {
	tr := NewTrace(8)
	tr.Enable()
	for i := 1; i <= 20; i++ {
		tr.Record(KindRequest, OpFor("req"), uint32(i), 0, 0)
	}
	if tr.Len() != 8 {
		t.Fatalf("len = %d, want 8", tr.Len())
	}
	entries := tr.Snapshot()
	// Oldest-first: sequence numbers 13..20 survive.
	for i, e := range entries {
		want := uint64(13 + i)
		if e.Seq != want {
			t.Errorf("entry %d seq = %d, want %d", i, e.Seq, want)
		}
		if e.Window != uint32(want) {
			t.Errorf("entry %d window = %d, want %d", i, e.Window, want)
		}
	}
}

func TestTraceConcurrentWriters(t *testing.T) {
	tr := NewTrace(64)
	tr.Enable()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Record(KindEvent, OpFor("dispatch"), 0, int64(i), 0)
				if i%100 == 0 {
					tr.Snapshot() // readers interleave with writers
				}
			}
		}()
	}
	wg.Wait()
	entries := tr.Snapshot()
	if len(entries) != 64 {
		t.Fatalf("len = %d, want 64", len(entries))
	}
	// 4000 records total; the ring holds the last 64 and sequence
	// numbers must be strictly increasing oldest-first.
	for i := 1; i < len(entries); i++ {
		if entries[i].Seq != entries[i-1].Seq+1 {
			t.Fatalf("seq gap at %d: %d then %d", i, entries[i-1].Seq, entries[i].Seq)
		}
	}
	if entries[len(entries)-1].Seq != 4000 {
		t.Errorf("last seq = %d, want 4000", entries[len(entries)-1].Seq)
	}
}

func TestTraceDisabledRecordAllocs(t *testing.T) {
	tr := NewTrace(16)
	req := OpFor("req")
	if n := testing.AllocsPerRun(100, func() { tr.Record(KindRequest, req, 1, 2, 3) }); n != 0 {
		t.Errorf("disabled Record allocates %v/op, want 0", n)
	}
	tr.Enable()
	if n := testing.AllocsPerRun(100, func() { tr.Record(KindRequest, req, 1, 2, 3) }); n != 0 {
		t.Errorf("enabled Record allocates %v/op, want 0", n)
	}
}

func TestEntryJSON(t *testing.T) {
	tr := NewTrace(4)
	tr.Enable()
	tr.Record(KindDegrade, OpFor("read WM_NAME"), 9, 0, 0)
	data, err := json.Marshal(tr.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded[0]["kind"] != "degrade" || decoded[0]["op"] != "read WM_NAME" {
		t.Errorf("decoded = %v", decoded[0])
	}
}

// TestOpJSONMatchesString pins that an Op encodes byte for byte as a
// string field of its name did, HTML escapes included, and that a
// decoded name comes back as the same code.
func TestOpJSONMatchesString(t *testing.T) {
	for _, name := range []string{"", "dispatch", "manage rollback: reparent", `<Key>F1 & "q"`} {
		e := Entry{Seq: 1, Kind: KindDegrade, Op: OpFor(name), Window: 7}
		got, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(struct {
			Seq    uint64    `json:"seq"`
			Time   int64     `json:"time_ns"`
			Kind   EventKind `json:"kind"`
			Op     string    `json:"op"`
			Window uint32    `json:"window,omitempty"`
			Arg1   int64     `json:"arg1,omitempty"`
			Arg2   int64     `json:"arg2,omitempty"`
		}{Seq: 1, Kind: KindDegrade, Op: name, Window: 7})
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%q: Entry JSON = %s, want %s", name, got, want)
		}
		var back Entry
		if err := json.Unmarshal(got, &back); err != nil || back != e {
			t.Errorf("%q: round trip = %+v, %v; want %+v", name, back, err, e)
		}
	}
	var op Op
	if err := json.Unmarshal([]byte(`7`), &op); err == nil {
		t.Error("a number decoded as an op")
	}
}
