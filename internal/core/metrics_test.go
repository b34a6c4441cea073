package core

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"repro/internal/obs"
	"repro/internal/swmproto"
	"repro/internal/xserver"
)

// The golden files in testdata pin what a fresh WM (no clients, no
// pump, default options, the shape of a fleet session at start) exposes:
// registry_names.golden lists every instrument Visit enumerates, as
// "kind name" lines in walk order, and fresh_stats.golden is the stats
// payload it renders. Both were captured from the WM that registered
// each counter by name, one at a time; the shared name tables and
// batch registration must reproduce them exactly.

// nameLister records a Visit walk as "kind name" lines.
type nameLister struct{ buf bytes.Buffer }

func (l *nameLister) VisitCounter(name string, _ int64) { fmt.Fprintf(&l.buf, "counter %s\n", name) }
func (l *nameLister) VisitGauge(name string, _ int64)   { fmt.Fprintf(&l.buf, "gauge %s\n", name) }
func (l *nameLister) VisitHistogram(name string, _ *obs.Histogram) {
	fmt.Fprintf(&l.buf, "histogram %s\n", name)
}

func freshWM(t *testing.T) *WM {
	t.Helper()
	wm, err := New(xserver.NewServer(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return wm
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFreshRegistryNamesGolden checks that a fresh WM registers exactly
// the golden instrument names, in the same order for each kind.
func TestFreshRegistryNamesGolden(t *testing.T) {
	var l nameLister
	freshWM(t).Metrics().Visit(&l)
	if want := readGolden(t, "registry_names.golden"); !bytes.Equal(l.buf.Bytes(), want) {
		t.Errorf("fresh WM registry names differ from testdata/registry_names.golden:\ngot:\n%s\nwant:\n%s", l.buf.Bytes(), want)
	}
}

// TestFreshStatsPayloadGolden checks that a fresh WM's stats payload is
// byte-identical to the golden one.
func TestFreshStatsPayloadGolden(t *testing.T) {
	resp := freshWM(t).ServeProto(swmproto.Request{Op: swmproto.OpQuery, Target: swmproto.TargetStats})
	if !resp.OK {
		t.Fatalf("stats: %s", resp.Error)
	}
	if want := readGolden(t, "fresh_stats.golden"); !bytes.Equal(resp.Result, want) {
		t.Errorf("fresh stats payload differs from testdata/fresh_stats.golden:\ngot:  %s\nwant: %s", resp.Result, want)
	}
}

// TestWMCountersTable checks the process-wide counter table newWMMetrics
// registers from: strictly ascending names (what Registry.Counters
// requires), one field per name, and every field a WM reads filled.
func TestWMCountersTable(t *testing.T) {
	names := wmCounters.names
	if len(names) != len(wmCounters.fields) {
		t.Fatalf("%d names but %d fields", len(names), len(wmCounters.fields))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("names not strictly ascending at %d: %q, %q", i, names[i-1], names[i])
		}
	}
	m := newWMMetrics(obs.NewRegistry(), nil)
	for major, i := range requestMajor {
		if m.requestsByMajor[i] == nil || m.errsByOp[i] == nil {
			t.Errorf("major %s (index %d) has no counter", major, i)
		}
	}
	seen := make(map[*obs.Counter]string)
	for i, f := range wmCounters.fields {
		c := *f(m)
		if c == nil {
			t.Errorf("%s: field left nil", names[i])
		} else if prev, dup := seen[c]; dup {
			t.Errorf("%s and %s share a counter", prev, names[i])
		}
		seen[c] = names[i]
	}
}
