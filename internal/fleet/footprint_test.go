package fleet

import (
	"reflect"
	"runtime"
	"runtime/metrics"
	"testing"

	"repro/internal/obs"
	"repro/internal/xproto"
)

// TestBulkRecordsHoldNoPointers pins the layout that keeps a session's
// two bulk buffers, the connection event queues ([]xproto.Event) and
// the WM trace ring ([]obs.Entry), out of the garbage collector's scan:
// a slice of a pointer-free type is allocated noscan. A string,
// slice, map, pointer, interface, func or chan field anywhere in
// either record would make every buffer scannable again.
func TestBulkRecordsHoldNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.String, reflect.Slice, reflect.Map, reflect.Pointer,
			reflect.UnsafePointer, reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("%s is a %s, which the garbage collector must scan", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		}
	}
	walk("xproto.Event", reflect.TypeOf(xproto.Event{}))
	walk("obs.Entry", reflect.TypeOf(obs.Entry{}))
}

// TestFleetSessionFootprint bounds what one fleet session keeps live,
// and how much of it the garbage collector has to scan, on the
// benchmark's fleet shape: 64 sessions, each with two managed XTerm
// clients, measured after a forced GC. With the event record and the
// trace entry pointer-free, a session measured 12.4 KB scannable and
// 37.2 KB live (go1.24, linux/amd64; a sizing prototype of the same
// layout measured 12.4 and 37.7 KB). With a string keysym, a slice of
// ClientMessage data and a string trace op it measured 46.3 and 49.2
// KB. The bounds leave a few KB of headroom over the first pair and
// fail on the second.
func TestFleetSessionFootprint(t *testing.T) {
	const (
		sessions   = 64
		maxScanKB  = 16
		maxLiveKB  = 42
		perKB      = 1024 * sessions
		scanMetric = "/gc/scan/heap:bytes"
		liveMetric = "/gc/heap/live:bytes"
	)
	read := func() (scan, live float64) {
		runtime.GC()
		s := []metrics.Sample{{Name: scanMetric}, {Name: liveMetric}}
		metrics.Read(s)
		return float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())
	}
	scan0, live0 := read()
	m, err := New(Config{Sessions: sessions, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.StartAll()
	m.Drain()
	for i := 0; i < sessions; i++ {
		launchClients(t, m, i, 2)
	}
	scan1, live1 := read()
	runtime.KeepAlive(m)
	scanKB, liveKB := (scan1-scan0)/perKB, (live1-live0)/perKB
	t.Logf("per session: %.1f KB scannable, %.1f KB live", scanKB, liveKB)
	if scanKB > maxScanKB {
		t.Errorf("%s per session = %.1f KB, want <= %d KB", scanMetric, scanKB, maxScanKB)
	}
	if liveKB > maxLiveKB {
		t.Errorf("%s per session = %.1f KB, want <= %d KB", liveMetric, liveKB, maxLiveKB)
	}
}
