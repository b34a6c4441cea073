// Package obs is the runtime observability layer: a typed metrics
// registry (counters, gauges, latency histograms) and a fixed-size
// ring-buffer event trace (trace.go). The paper's swm is blind at run
// time — swmcmd is fire-and-forget — so this package gives the WM an
// atomically readable account of what it is doing, cheap enough to
// leave on permanently.
//
// Design constraints, in priority order:
//
//  1. Record paths allocate nothing. Counters, gauges and histograms
//     are bare atomics; the trace stores fixed-size entries that hold
//     no pointer (an op is a code taken once from OpFor). The hot
//     paths (request gate, event pump, panner sync) run millions of
//     times per benchmark and must stay inside the PR 2 allocation
//     budgets (0 allocs/op for the pan storm).
//  2. Instruments are registered once, at construction time, and held
//     as struct fields thereafter. Registry lookups never happen on a
//     hot path.
//  3. Reading is cheap. Each instrument kind is a name-sorted slice,
//     and registration happens at construction, so Visit walks the
//     three slices holding the registry's leaf lock, with no sort, no
//     map and no allocation; a walk only ever waits on a registration
//     still in progress. The stats render streams straight off the
//     walk (swmproto.AppendStats), because a stats miss sits on a fleet
//     lane's serving path. Snapshot() still builds maps, for callers
//     that want the decoded shape.
//
// Instruments may be invoked while the X server's lock is held (the
// connection instrument fires inside the request gate), so nothing in
// this package acquires anything but its own leaf locks and nothing
// here may issue X requests.
package obs

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count. The zero value is ready
// to use; Registry.Counter hands out registered instances.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; this is not checked on the hot
// path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-write-wins instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n (atomically — concurrent in/decrements
// such as an in-flight request count never lose updates).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets. Bounds are
// inclusive upper bounds in ascending order; one implicit overflow
// bucket catches everything above the last bound. Observe is wait-free
// and allocation-free: a linear scan over a handful of bounds plus two
// atomic adds.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	count   atomic.Int64
	sum     atomic.Int64
}

// NewHistogram builds a histogram with the given ascending upper
// bounds. Registry.Histogram is the usual doorway.
func NewHistogram(bounds []int64) *Histogram {
	h := &Histogram{}
	h.setBounds(bounds)
	return h
}

// setBounds readies a zero Histogram with the given ascending upper
// bounds.
func (h *Histogram) setBounds(bounds []int64) {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	h.bounds = append([]int64(nil), bounds...)
	h.buckets = make([]atomic.Int64, len(bounds)+1)
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Bucket is one histogram bucket in a snapshot: the count of
// observations at or below UpperBound (exclusive of lower buckets).
// The overflow bucket has UpperBound == -1, standing in for +Inf.
type Bucket struct {
	UpperBound int64 `json:"le"`
	Count      int64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Buckets []Bucket `json:"buckets"`
}

// Range calls f once per bucket in bound order: the bucket's inclusive
// upper bound (-1 standing for +Inf on the overflow bucket, as in
// Bucket) and its non-cumulative count. Counts are individual atomic
// loads; like any scrape, the set is not a consistent cut. Range is
// the allocation-free doorway snapshot() and the text exporter share.
func (h *Histogram) Range(f func(upperBound, count int64)) {
	for i := range h.buckets {
		ub := int64(-1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		f(ub, h.buckets[i].Load())
	}
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     h.sum.Load(),
		Buckets: make([]Bucket, 0, len(h.buckets)),
	}
	h.Range(func(ub, count int64) {
		s.Buckets = append(s.Buckets, Bucket{UpperBound: ub, Count: count})
	})
	return s
}

// LatencyBounds is the default bucket layout for nanosecond latencies:
// 1µs to ~100ms in roughly 4x steps.
var LatencyBounds = []int64{
	1_000, 4_000, 16_000, 64_000, 256_000,
	1_000_000, 4_000_000, 16_000_000, 64_000_000, 256_000_000,
}

// SizeBounds is the default bucket layout for small cardinalities
// (panner damage per sync).
var SizeBounds = []int64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}

// Registry holds named instruments. Registration (Counter, Counters,
// Gauge, Histogram) is idempotent — asking for an existing name returns
// the existing instrument — and guarded by a mutex; it happens at
// construction time only. Reads of registered instruments are plain
// atomic loads on the instruments themselves.
//
// Each kind is one slice kept sorted by name: registration merges new
// names in at their sorted positions, so enumeration (Visit) never
// sorts. Names never change after registration, which is why the order
// is paid for once, at construction, rather than per read.
type Registry struct {
	mu sync.Mutex
	// One name-sorted slice per kind, guarded by mu.
	counters   []named[*Counter]
	gauges     []named[*Gauge]
	histograms []named[*Histogram]
}

// named is one registered instrument and its name.
type named[T any] struct {
	name string
	inst T
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// register stores in out[j] the instrument called names[j] in the
// registry's sorted slice s, registering the names s lacks. names must be
// strictly ascending; register panics before changing anything if they
// are not, as NewHistogram does on unsorted bounds. New instruments
// come from one block of zero T values, each readied by init (if
// non-nil) before s is touched, and are merged into s in one pass from
// the back. Every registration, single or batch, goes through here.
// The caller holds the registry lock.
func register[T any](s *[]named[*T], names []string, out []*T, init func(*T)) {
	fresh, i := 0, 0
	for j, name := range names {
		if j > 0 && names[j-1] >= name {
			panic("obs: registration names must be strictly ascending")
		}
		for i < len(*s) && (*s)[i].name < name {
			i++
		}
		if i < len(*s) && (*s)[i].name == name {
			out[j] = (*s)[i].inst
		} else {
			fresh++
		}
	}
	if fresh == 0 {
		return
	}
	block := make([]T, fresh)
	if init != nil {
		for f := range block {
			init(&block[f])
		}
	}
	i = len(*s) - 1
	all := slices.Grow(*s, fresh)[:len(*s)+fresh]
	k := len(all) - 1
	for j := len(names) - 1; j >= 0; j-- {
		for i >= 0 && all[i].name > names[j] {
			all[k] = all[i]
			i, k = i-1, k-1
		}
		if i >= 0 && all[i].name == names[j] {
			all[k] = all[i]
			i, k = i-1, k-1
			continue
		}
		fresh--
		out[j] = &block[fresh]
		all[k] = named[*T]{names[j], out[j]}
		k--
	}
	*s = all
}

// Counter returns the named counter, registering it on first use.
func (r *Registry) Counter(name string) *Counter {
	var c [1]*Counter
	r.mu.Lock()
	defer r.mu.Unlock()
	register(&r.counters, []string{name}, c[:], nil)
	return c[0]
}

// Counters returns the counters called names, in names order,
// registering the ones that are new. names must be strictly ascending
// (sorted, no duplicates); Counters panics otherwise and registers
// nothing. It is the batch form of Counter for a component that
// registers a fixed set: one merge pass and one allocation for all the
// new counters, instead of a search, an insert and an allocation each.
func (r *Registry) Counters(names []string) []*Counter {
	out := make([]*Counter, len(names))
	r.mu.Lock()
	defer r.mu.Unlock()
	register(&r.counters, names, out, nil)
	return out
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	var g [1]*Gauge
	r.mu.Lock()
	defer r.mu.Unlock()
	register(&r.gauges, []string{name}, g[:], nil)
	return g[0]
}

// Histogram returns the named histogram, registering it with the given
// bounds on first use. Later calls ignore bounds and return the
// existing instrument.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	var h [1]*Histogram
	r.mu.Lock()
	defer r.mu.Unlock()
	register(&r.histograms, []string{name}, h[:], func(h *Histogram) { h.setBounds(bounds) })
	return h[0]
}

// Snapshot is a point-in-time copy of every registered instrument,
// shaped for JSON (swmcmd -query stats round-trips it).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies every instrument's current value. Individual values
// are atomically read; the set as a whole is not a consistent cut, the
// usual metrics-scrape semantics. Snapshot rides the same Visit walk
// the text exporter uses (export.go), so the JSON and Prometheus views
// enumerate identical instrument sets by construction.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	r.Visit(snapshotVisitor{&s})
	return s
}

// CounterNames returns the registered counter names, sorted (tests and
// diagnostics).
func (r *Registry) CounterNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.counters))
	for i, c := range r.counters {
		out[i] = c.name
	}
	return out
}
