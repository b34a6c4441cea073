package xrdb

import "testing"

// The adoption fast path leans on Query being free: objects.Build asks
// the database dozens of questions per decoration, and the compiled
// trie is supposed to answer them without touching the heap. These
// guards pin the zero-allocation contract for hits, misses, and the
// wildcard/loose shapes templates actually use.

func allocTestDB(t testing.TB) *DB {
	t.Helper()
	db := New()
	if err := db.LoadString(`swm*decoration: standard
Swm*Panel*Background: gray
swm.color.screen0*xclock.decoration: shaped
swm*?.bindings: default
*font: fixed
swm.color.screen0.panel.button.background: blue
`); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestQueryZeroAlloc(t *testing.T) {
	db := allocTestDB(t)
	queries := []struct {
		names, classes []string
		want           string
		ok             bool
	}{
		{
			[]string{"swm", "color", "screen0", "xclock", "decoration"},
			[]string{"Swm", "Color", "Screen0", "XClock", "Decoration"},
			"shaped", true,
		},
		{
			[]string{"swm", "color", "screen0", "panel", "button", "background"},
			[]string{"Swm", "Color", "Screen0", "Panel", "Button", "Background"},
			"blue", true,
		},
		{
			[]string{"swm", "mono", "screen1", "xterm", "font"},
			[]string{"Swm", "Mono", "Screen1", "XTerm", "Font"},
			"fixed", true,
		},
		{
			[]string{"swm", "color", "screen0", "xterm", "nothing"},
			[]string{"Swm", "Color", "Screen0", "XTerm", "Nothing"},
			"", false,
		},
	}
	for _, q := range queries {
		// Warm once so the lazy compile is paid outside the measurement.
		if v, ok := db.Query(q.names, q.classes); v != q.want || ok != q.ok {
			t.Fatalf("Query(%v) = %q, %v; want %q, %v", q.names, v, ok, q.want, q.ok)
		}
		allocs := testing.AllocsPerRun(200, func() {
			db.Query(q.names, q.classes)
		})
		if allocs != 0 {
			t.Errorf("Query(%v) allocates %.1f/op; want 0", q.names, allocs)
		}
	}
}

func TestQueryZeroAllocAfterMutation(t *testing.T) {
	db := allocTestDB(t)
	names := []string{"swm", "color", "screen0", "xclock", "decoration"}
	classes := []string{"Swm", "Color", "Screen0", "XClock", "Decoration"}
	db.Query(names, classes)
	db.MustPut("swm*xclock.decoration", "override") // drops the trie
	if v, ok := db.Query(names, classes); !ok || v != "shaped" {
		// Tight screen0 binding on the original entry still wins.
		t.Fatalf("Query after Put = %q, %v", v, ok)
	}
	allocs := testing.AllocsPerRun(200, func() {
		db.Query(names, classes)
	})
	if allocs != 0 {
		t.Errorf("Query allocates %.1f/op after recompile; want 0", allocs)
	}
}

// TestMemoHitZeroAlloc pins the memo's side of the same contract: core
// asks it once per decoration with a key built on the stack, and a hit
// must not touch the heap.
func TestMemoHitZeroAlloc(t *testing.T) {
	db := allocTestDB(t)
	build := func() (any, error) { return db, nil }
	var buf [32]byte
	key := append(buf[:0], "core.deco 0 0openLook"...)
	if _, _, _, err := db.Memo(key, build); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, hit, _, _ := db.Memo(key, build); !hit {
			t.Fatal("memo miss on a kept key")
		}
	})
	if avg != 0 {
		t.Errorf("Memo hit allocates %.1f times", avg)
	}
}
