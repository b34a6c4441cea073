package obs

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("a")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if reg.Counter("a") != c {
		t.Error("Counter not idempotent")
	}
	g := reg.Gauge("g")
	g.Set(7)
	g.Set(3)
	if g.Value() != 3 {
		t.Errorf("gauge = %d, want 3", g.Value())
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	// One value per region: first bucket, boundary (inclusive), middle,
	// last bucket, overflow.
	for _, v := range []int64{5, 10, 11, 1000, 5000} {
		h.Observe(v)
	}
	snap := h.snapshot()
	if snap.Count != 5 || snap.Sum != 5+10+11+1000+5000 {
		t.Fatalf("count=%d sum=%d", snap.Count, snap.Sum)
	}
	want := []struct {
		le    int64
		count int64
	}{{10, 2}, {100, 1}, {1000, 1}, {-1, 1}}
	if len(snap.Buckets) != len(want) {
		t.Fatalf("buckets = %+v", snap.Buckets)
	}
	for i, w := range want {
		if snap.Buckets[i].UpperBound != w.le || snap.Buckets[i].Count != w.count {
			t.Errorf("bucket %d = %+v, want le=%d count=%d", i, snap.Buckets[i], w.le, w.count)
		}
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for unsorted bounds")
		}
	}()
	NewHistogram([]int64{10, 10})
}

func TestRegistrySnapshot(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c").Add(2)
	reg.Gauge("g").Set(9)
	reg.Histogram("h", []int64{1}).Observe(5)
	snap := reg.Snapshot()
	if snap.Counters["c"] != 2 || snap.Gauges["g"] != 9 {
		t.Errorf("snapshot = %+v", snap)
	}
	h := snap.Histograms["h"]
	if h.Count != 1 || h.Sum != 5 {
		t.Errorf("histogram snapshot = %+v", h)
	}
	// The snapshot must be JSON-serializable: it is the stats query's
	// wire payload.
	if _, err := json.Marshal(snap); err != nil {
		t.Fatal(err)
	}
	names := reg.CounterNames()
	if len(names) != 1 || names[0] != "c" {
		t.Errorf("CounterNames = %v", names)
	}
}

func TestConcurrentRegistry(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				reg.Counter("shared").Inc()
				reg.Histogram("lat", LatencyBounds).Observe(int64(j))
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("shared").Value(); got != 8000 {
		t.Errorf("shared = %d, want 8000", got)
	}
	if got := reg.Histogram("lat", LatencyBounds).Count(); got != 8000 {
		t.Errorf("lat count = %d, want 8000", got)
	}
}

func TestCounterRecordAllocs(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("hot")
	h := reg.Histogram("hist", SizeBounds)
	if n := testing.AllocsPerRun(100, func() { c.Inc(); h.Observe(3) }); n != 0 {
		t.Errorf("record path allocates %v/op, want 0", n)
	}
}

// TestCountersBatch pins batch registration: new names are merged into
// the sorted counter list, names already registered (by either form)
// return the existing counters, and results come back in input order.
func TestCountersBatch(t *testing.T) {
	reg := NewRegistry()
	b := reg.Counter("b")
	d := reg.Counter("d")
	got := reg.Counters([]string{"a", "b", "c", "d", "e"})
	if len(got) != 5 {
		t.Fatalf("Counters returned %d counters, want 5", len(got))
	}
	if got[1] != b || got[3] != d {
		t.Error("batch did not return the counters registered one at a time")
	}
	for i, c := range got {
		c.Add(int64(i + 1))
	}
	if want := []string{"a", "b", "c", "d", "e"}; !slices.Equal(reg.CounterNames(), want) {
		t.Errorf("CounterNames = %v, want %v", reg.CounterNames(), want)
	}
	for i, name := range []string{"a", "b", "c", "d", "e"} {
		if c := reg.Counter(name); c != got[i] || c.Value() != int64(i+1) {
			t.Errorf("Counter(%q) is not the batch's counter %d", name, i)
		}
	}
	again := reg.Counters([]string{"a", "c", "e"})
	if again[0] != got[0] || again[1] != got[2] || again[2] != got[4] {
		t.Error("re-registering a batch did not return the existing counters")
	}
	if n := len(reg.CounterNames()); n != 5 {
		t.Errorf("re-registration grew the registry to %d names", n)
	}
}

// TestCountersRejectsUnsortedNames pins the one defined behavior for
// unsorted or duplicate batch input: Counters panics and registers
// nothing, as NewHistogram does on unsorted bounds.
func TestCountersRejectsUnsortedNames(t *testing.T) {
	for _, names := range [][]string{{"b", "a"}, {"a", "a"}, {"a", "c", "b"}} {
		reg := NewRegistry()
		reg.Counter("m")
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Counters(%q) did not panic", names)
				}
			}()
			reg.Counters(names)
		}()
		if got := reg.CounterNames(); !slices.Equal(got, []string{"m"}) {
			t.Errorf("after Counters(%q) panicked the registry holds %v, want [m]", names, got)
		}
	}
}

// TestCountersBatchAllocs checks that a batch of new names costs as
// many allocations as a batch of one (the result, one block of counters
// and the grown list), not one or more per name.
func TestCountersBatchAllocs(t *testing.T) {
	names := make([]string, 100)
	for i := range names {
		names[i] = fmt.Sprintf("c%03d", i)
	}
	one := testing.AllocsPerRun(20, func() { NewRegistry().Counters(names[:1]) })
	many := testing.AllocsPerRun(20, func() { NewRegistry().Counters(names) })
	if many > one {
		t.Errorf("registering 100 counters = %.0f allocs, registering 1 = %.0f; want no more", many, one)
	}
}

// TestHistogramBadBoundsRegistersNothing checks that a histogram whose
// bounds are rejected leaves the registry as it was.
func TestHistogramBadBoundsRegistersNothing(t *testing.T) {
	reg := NewRegistry()
	// Three names leave the list spare capacity, so a merge begun before
	// the panic would shift entries inside the registry's own array.
	reg.Histogram("b", SizeBounds)
	reg.Histogram("c", SizeBounds)
	reg.Histogram("d", SizeBounds)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic for unsorted bounds")
			}
		}()
		reg.Histogram("a", []int64{2, 1})
	}()
	var l visitRecorder
	var got []string
	l.names = &got
	reg.Visit(l)
	if want := []string{"histogram:b", "histogram:c", "histogram:d"}; !slices.Equal(got, want) {
		t.Errorf("after a rejected registration Visit saw %v, want %v", got, want)
	}
}
