package obs

import (
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func populated() *Registry {
	r := NewRegistry()
	r.Counter("wm.managed").Add(7)
	r.Counter("degrade.core").Add(2)
	r.Gauge("fleet.sessions_live").Set(64)
	h := r.Histogram("pump.ns", []int64{1000, 4000})
	h.Observe(500)
	h.Observe(500)
	h.Observe(3000)
	h.Observe(9000)
	return r
}

func TestVisitOrderAndValues(t *testing.T) {
	r := populated()
	var got []string
	v := visitRecorder{names: &got}
	r.Visit(v)
	want := []string{
		"counter:degrade.core=2",
		"counter:wm.managed=7",
		"gauge:fleet.sessions_live=64",
		"histogram:pump.ns",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("visit order = %v, want %v", got, want)
	}
}

// TestVisitOrderAfterLateRegistration pins the sorted-slice registry:
// names registered after a Visit land at their sorted position in the
// next one, and re-registering an existing name adds nothing.
func TestVisitOrderAfterLateRegistration(t *testing.T) {
	r := populated()
	r.Visit(visitRecorder{names: new([]string)})
	r.Counter("a.early").Inc()
	r.Counter("z.late").Inc()
	r.Counter("wm.managed").Inc()
	r.Gauge("Upper").Set(1)
	r.Histogram("batch.size", SizeBounds)
	var got []string
	r.Visit(visitRecorder{names: &got})
	want := []string{
		"counter:a.early=1",
		"counter:degrade.core=2",
		"counter:wm.managed=8",
		"counter:z.late=1",
		"gauge:Upper=1",
		"gauge:fleet.sessions_live=64",
		"histogram:batch.size",
		"histogram:pump.ns",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("visit order = %v, want %v", got, want)
	}
}

// TestRegistrationConcurrentWithReads runs registration of every kind
// against Visit, Snapshot and ExportText. Run under -race it checks
// that a walk and a registration exclude each other on the registry
// lock, so no reader sees a slice while a merge is shifting it.
func TestRegistrationConcurrentWithReads(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				name := "n." + strconv.Itoa((i*7919+w*31)%200)
				r.Counter(name).Inc()
				r.Gauge(name).Set(int64(i))
				r.Histogram(name, SizeBounds).Observe(int64(i))
			}
		}()
	}
	readers := []func(){
		func() { r.Visit(visitRecorder{names: new([]string)}) },
		func() { r.Snapshot() },
		func() { _ = r.Export(io.Discard) },
	}
	for _, read := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				read()
			}
		}()
	}
	wg.Wait()

	var got []string
	r.Visit(visitRecorder{names: &got})
	if len(got) != 3*200 {
		t.Fatalf("visited %d instruments, want %d", len(got), 3*200)
	}
	names := r.CounterNames()
	if !slices.IsSorted(names) {
		t.Errorf("counter names not sorted: %v", names)
	}
}

// TestVisitAllocFree pins the locked walk: Visit allocates nothing,
// before or after a re-registration, and a registration that adds a
// name is seen by the next walk.
func TestVisitAllocFree(t *testing.T) {
	r := populated()
	var v visitCounter
	r.Visit(&v)
	if allocs := testing.AllocsPerRun(100, func() { r.Visit(&v) }); allocs != 0 {
		t.Errorf("Visit = %.1f allocs/op, want 0", allocs)
	}
	r.Counter("wm.managed") // existing name: nothing changes
	if allocs := testing.AllocsPerRun(100, func() { r.Visit(&v) }); allocs != 0 {
		t.Errorf("Visit after re-registration = %.1f allocs/op, want 0", allocs)
	}
	r.Gauge("late")
	v = visitCounter{}
	r.Visit(&v)
	if v.n != 5 {
		t.Errorf("Visit after a new name saw %d instruments, want 5", v.n)
	}
}

// visitCounter counts instruments without allocating.
type visitCounter struct{ n int }

func (v *visitCounter) VisitCounter(string, int64)        { v.n++ }
func (v *visitCounter) VisitGauge(string, int64)          { v.n++ }
func (v *visitCounter) VisitHistogram(string, *Histogram) { v.n++ }

type visitRecorder struct{ names *[]string }

func (v visitRecorder) VisitCounter(name string, value int64) {
	*v.names = append(*v.names, "counter:"+name+"="+itoa(value))
}
func (v visitRecorder) VisitGauge(name string, value int64) {
	*v.names = append(*v.names, "gauge:"+name+"="+itoa(value))
}
func (v visitRecorder) VisitHistogram(name string, h *Histogram) {
	*v.names = append(*v.names, "histogram:"+name)
}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }

// TestSnapshotMatchesVisit pins the shared-doorway contract: the JSON
// snapshot and a direct Visit enumerate the same instruments with the
// same values.
func TestSnapshotMatchesVisit(t *testing.T) {
	r := populated()
	s := r.Snapshot()
	if s.Counters["wm.managed"] != 7 || s.Counters["degrade.core"] != 2 {
		t.Errorf("counters = %v", s.Counters)
	}
	if s.Gauges["fleet.sessions_live"] != 64 {
		t.Errorf("gauges = %v", s.Gauges)
	}
	h := s.Histograms["pump.ns"]
	if h.Count != 4 || h.Sum != 13000 {
		t.Errorf("histogram count/sum = %d/%d", h.Count, h.Sum)
	}
	wantBuckets := []Bucket{{1000, 2}, {4000, 1}, {-1, 1}}
	if len(h.Buckets) != len(wantBuckets) {
		t.Fatalf("buckets = %+v", h.Buckets)
	}
	for i, b := range wantBuckets {
		if h.Buckets[i] != b {
			t.Errorf("bucket %d = %+v, want %+v", i, h.Buckets[i], b)
		}
	}
}

func TestExportTextFormat(t *testing.T) {
	r := populated()
	var sb strings.Builder
	if err := r.Export(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE swm_wm_managed counter\n",
		"swm_wm_managed 7\n",
		"# TYPE swm_fleet_sessions_live gauge\n",
		"swm_fleet_sessions_live 64\n",
		"# TYPE swm_pump_ns histogram\n",
		"swm_pump_ns_bucket{le=\"1000\"} 2\n",
		"swm_pump_ns_bucket{le=\"4000\"} 3\n",
		"swm_pump_ns_bucket{le=\"+Inf\"} 4\n",
		"swm_pump_ns_sum 13000\n",
		"swm_pump_ns_count 4\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "..") || strings.Contains(out, "swm_swm_") {
		t.Errorf("bad mangling in:\n%s", out)
	}
}

// TestExportTextLabelsAndGrouping drives the fleet shape: the same
// metric name in several labeled registries must appear as one family —
// a single # TYPE line with one series per registry.
func TestExportTextLabelsAndGrouping(t *testing.T) {
	r0 := NewRegistry()
	r0.Counter("wm.managed").Add(3)
	r1 := NewRegistry()
	r1.Counter("wm.managed").Add(5)
	var sb strings.Builder
	err := ExportText(&sb,
		LabeledRegistry{Registry: r0, Labels: []Label{{"session", "0"}}},
		LabeledRegistry{Registry: r1, Labels: []Label{{"session", "1"}}},
	)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if n := strings.Count(out, "# TYPE swm_wm_managed counter"); n != 1 {
		t.Errorf("family declared %d times:\n%s", n, out)
	}
	for _, want := range []string{
		"swm_wm_managed{session=\"0\"} 3\n",
		"swm_wm_managed{session=\"1\"} 5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q in:\n%s", want, out)
		}
	}
}

func TestExportTextHistogramLabels(t *testing.T) {
	r := NewRegistry()
	r.Histogram("lat.ns", []int64{10}).Observe(5)
	var sb strings.Builder
	if err := r.Export(&sb, Label{"session", "3"}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"swm_lat_ns_bucket{session=\"3\",le=\"10\"} 1\n",
		"swm_lat_ns_bucket{session=\"3\",le=\"+Inf\"} 1\n",
		"swm_lat_ns_sum{session=\"3\"} 5\n",
		"swm_lat_ns_count{session=\"3\"} 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q in:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Gauge("g").Set(1)
	var sb strings.Builder
	if err := r.Export(&sb, Label{"name", `a"b\c` + "\n"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `swm_g{name="a\"b\\c\n"} 1`) {
		t.Errorf("escaping wrong:\n%s", sb.String())
	}
}
