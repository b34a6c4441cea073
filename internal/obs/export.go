// Text exposition and the visitor seam. The registry has exactly one
// enumeration doorway — Visit — and every consumer rides it: Snapshot
// (the JSON shape SWM_OBS_SNAPSHOT writes), swmproto.AppendStats (the
// same shape streamed as the stats query payload) and ExportText (the
// Prometheus text form /metrics serves) are all visitors, so none
// reaches into registry internals and the views cannot drift apart.
package obs

import (
	"io"
	"sort"
	"strconv"
)

// Visitor receives every registered instrument, one call per
// instrument, names sorted within each kind. Counter and gauge values
// are copied at visit time; histograms are handed over live (read them
// through Range or snapshot) so exporters can stream buckets without an
// intermediate allocation.
type Visitor interface {
	VisitCounter(name string, value int64)
	VisitGauge(name string, value int64)
	VisitHistogram(name string, h *Histogram)
}

// Visit walks the registry: counters, then gauges, then histograms,
// each in sorted name order. It holds the registry lock for the walk,
// so it needs no copy, no sort, no map and no allocation: the order
// was settled when each name was registered. Registration happens at
// construction, so a walk waits only on one still in progress. The
// visitor runs under the lock and must not call back into r.
func (r *Registry) Visit(v Visitor) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		v.VisitCounter(c.name, c.inst.Value())
	}
	for _, g := range r.gauges {
		v.VisitGauge(g.name, g.inst.Value())
	}
	for _, h := range r.histograms {
		v.VisitHistogram(h.name, h.inst)
	}
}

// snapshotVisitor assembles the JSON Snapshot; see Registry.Snapshot.
type snapshotVisitor struct{ s *Snapshot }

func (v snapshotVisitor) VisitCounter(name string, value int64) { v.s.Counters[name] = value }
func (v snapshotVisitor) VisitGauge(name string, value int64)   { v.s.Gauges[name] = value }
func (v snapshotVisitor) VisitHistogram(name string, h *Histogram) {
	v.s.Histograms[name] = h.snapshot()
}

// Label is one key="value" pair attached to every series of a labeled
// registry in the text exposition (per-session labels in a fleet).
type Label struct {
	Key   string
	Value string
}

// LabeledRegistry pairs a registry with the labels its series carry.
type LabeledRegistry struct {
	Registry *Registry
	Labels   []Label
}

// Export writes this registry alone in the Prometheus text exposition
// format; see ExportText for the multi-registry form.
func (r *Registry) Export(w io.Writer, labels ...Label) error {
	return ExportText(w, LabeledRegistry{Registry: r, Labels: labels})
}

// ExportText writes one or more registries in the Prometheus text
// exposition format (text/plain; version=0.0.4). Series with the same
// metric name across registries — the per-session registries of a
// fleet — are grouped under a single # TYPE declaration, as the format
// requires. Instrument names are mangled to the metric charset
// ("fleet.sessions_live" → "swm_fleet_sessions_live"); histograms emit
// the conventional cumulative _bucket/_sum/_count series with le
// labels, -1 standing for +Inf as everywhere else in this package.
//
// The writer is allocation-conscious, not allocation-free: values are
// appended with strconv into one buffer reused for every line, but
// family grouping across registries necessarily builds an index.
// Export runs on the scrape path, which is cold next to the record
// paths the package optimizes for.
func ExportText(w io.Writer, regs ...LabeledRegistry) error {
	var families []*family
	index := map[string]*family{}
	add := func(name, kind string, s series) {
		mangled := promName(name)
		f, ok := index[mangled]
		if !ok {
			f = &family{name: mangled, kind: kind}
			index[mangled] = f
			families = append(families, f)
		}
		f.series = append(f.series, s)
	}
	for _, lr := range regs {
		if lr.Registry == nil {
			continue
		}
		lr.Registry.Visit(&collectVisitor{add: add, labels: renderLabels(lr.Labels)})
	}
	sort.Slice(families, func(i, j int) bool { return families[i].name < families[j].name })

	buf := make([]byte, 0, 256)
	for _, f := range families {
		buf = buf[:0]
		buf = append(buf, "# TYPE "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		buf = append(buf, f.kind...)
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
		for _, s := range f.series {
			var err error
			if f.kind == "histogram" {
				err = writeHistogramSeries(w, buf, f.name, s)
			} else {
				err = writeScalarSeries(w, buf, f.name, s)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

type series struct {
	labels string // pre-rendered `k="v",k2="v2"`, no braces; "" for none
	value  int64
	hist   *Histogram // set for histogram families
}

type family struct {
	name   string
	kind   string // "counter", "gauge" or "histogram"
	series []series
}

// collectVisitor feeds one labeled registry into the family index.
type collectVisitor struct {
	add    func(name, kind string, s series)
	labels string
}

func (c *collectVisitor) VisitCounter(name string, value int64) {
	c.add(name, "counter", series{labels: c.labels, value: value})
}

func (c *collectVisitor) VisitGauge(name string, value int64) {
	c.add(name, "gauge", series{labels: c.labels, value: value})
}

func (c *collectVisitor) VisitHistogram(name string, h *Histogram) {
	c.add(name, "histogram", series{labels: c.labels, hist: h})
}

func writeScalarSeries(w io.Writer, buf []byte, name string, s series) error {
	buf = buf[:0]
	buf = append(buf, name...)
	if s.labels != "" {
		buf = append(buf, '{')
		buf = append(buf, s.labels...)
		buf = append(buf, '}')
	}
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, s.value, 10)
	buf = append(buf, '\n')
	_, err := w.Write(buf)
	return err
}

func writeHistogramSeries(w io.Writer, buf []byte, name string, s series) error {
	// One coherent read of the live histogram: buckets are cumulated
	// while streaming, count/sum come from the same pass's loads. Like
	// any scrape, the set is not a consistent cut.
	var cum int64
	var err error
	s.hist.Range(func(upperBound, count int64) {
		if err != nil {
			return
		}
		cum += count
		buf = buf[:0]
		buf = append(buf, name...)
		buf = append(buf, "_bucket{"...)
		if s.labels != "" {
			buf = append(buf, s.labels...)
			buf = append(buf, ',')
		}
		buf = append(buf, `le="`...)
		if upperBound < 0 {
			buf = append(buf, "+Inf"...)
		} else {
			buf = strconv.AppendInt(buf, upperBound, 10)
		}
		buf = append(buf, `"} `...)
		buf = strconv.AppendInt(buf, cum, 10)
		buf = append(buf, '\n')
		_, err = w.Write(buf)
	})
	if err != nil {
		return err
	}
	if err := writeScalarSeries(w, buf, name+"_sum", series{labels: s.labels, value: s.hist.Sum()}); err != nil {
		return err
	}
	return writeScalarSeries(w, buf, name+"_count", series{labels: s.labels, value: s.hist.Count()})
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	buf := make([]byte, 0, 32)
	for i, l := range labels {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, l.Key...)
		buf = append(buf, `="`...)
		for _, r := range l.Value {
			switch r {
			case '"', '\\':
				buf = append(buf, '\\', byte(r))
			case '\n':
				buf = append(buf, '\\', 'n')
			default:
				buf = append(buf, string(r)...)
			}
		}
		buf = append(buf, '"')
	}
	return string(buf)
}

// promName mangles an instrument name into the metric charset: a swm_
// namespace prefix, every rune outside [a-zA-Z0-9_] replaced by '_'.
func promName(name string) string {
	out := make([]byte, 0, len(name)+4)
	out = append(out, "swm_"...)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
