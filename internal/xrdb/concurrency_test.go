package xrdb

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// Fleet mode shares one template DB across sessions, so the lifecycle
// guarantees Put/Clone/Query/Memo make — idempotent re-assertion, a
// memo that lives exactly as long as the contents it was derived from,
// snapshot isolation under concurrent mutation — are load-bearing.
// These tests pin each one down.

// memoCount memoizes a fresh counter value under key and reports the
// value Memo returned and whether it was a hit.
func memoCount(t *testing.T, db *DB, key string, builds *int) (int, bool) {
	t.Helper()
	v, hit, _, err := db.Memo([]byte(key), func() (any, error) {
		*builds++
		return *builds, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	n, ok := v.(int)
	if !ok {
		t.Fatalf("Memo(%q) = %v, a value some other build kept", key, v)
	}
	return n, hit
}

func TestPutIdenticalValueIsNoOp(t *testing.T) {
	db := New()
	db.MustPut("swm*SwmPanner*sticky", "True")
	builds := 0
	memoCount(t, db, "k", &builds)

	// Re-asserting the same value must keep the memo: every session
	// startup replays template writes, and a drop per session would
	// rebuild the fleet's decoration prototypes for nothing.
	db.MustPut("swm*SwmPanner*sticky", "True")
	if v, hit := memoCount(t, db, "k", &builds); !hit || v != 1 {
		t.Fatalf("after identical Put: value %d hit %v, want the kept 1", v, hit)
	}
	// The snapshot survives too: a warm Query after the no-op write must
	// not recompile.
	if v, ok := db.Query([]string{"swm", "pan", "sticky"}, []string{"Swm", "SwmPanner", "Sticky"}); !ok || v != "True" {
		t.Fatalf("Query after no-op Put = %q, %v", v, ok)
	}

	db.MustPut("swm*SwmPanner*sticky", "False")
	if v, hit := memoCount(t, db, "k", &builds); hit || v != 2 {
		t.Fatalf("after changed Put: value %d hit %v, want a rebuilt 2", v, hit)
	}
}

func TestCloneStartsWithEmptyMemo(t *testing.T) {
	db := New()
	db.MustPut("swm*background", "gray")
	builds := 0
	memoCount(t, db, "k", &builds)

	// The clone shares no derived value with its parent: it builds its
	// own, and its mutations leave the parent's memo alone.
	clone := db.Clone()
	if v, hit := memoCount(t, clone, "k", &builds); hit || v != 2 {
		t.Fatalf("clone: value %d hit %v, want its own build 2", v, hit)
	}
	clone.MustPut("swm*background", "white")
	if v, _ := db.Query([]string{"swm", "background"}, []string{"Swm", "Background"}); v != "gray" {
		t.Fatalf("parent saw clone's mutation: background = %q", v)
	}
	if v, hit := memoCount(t, db, "k", &builds); !hit || v != 1 {
		t.Fatalf("parent after clone Put: value %d hit %v, want the kept 1", v, hit)
	}
}

func TestMergeIdenticalKeepsMemo(t *testing.T) {
	db := New()
	db.MustPut("swm*a", "1")
	db.MustPut("swm*b", "2")
	builds := 0
	memoCount(t, db, "k", &builds)
	db.Merge(db.Clone())
	if _, hit := memoCount(t, db, "k", &builds); !hit {
		t.Fatal("self-equivalent Merge dropped the memo")
	}
	other := New()
	other.MustPut("swm*b", "3")
	db.Merge(other)
	if v, hit := memoCount(t, db, "k", &builds); hit || v != 2 {
		t.Fatalf("after changing Merge: value %d hit %v, want a rebuilt 2", v, hit)
	}
}

// TestMemoBuildRunsUnlocked pins that build runs with no database lock
// held: after a mutation its first Query compiles the trie under mu,
// which would deadlock if Memo still held it.
func TestMemoBuildRunsUnlocked(t *testing.T) {
	db := New()
	db.MustPut("swm*a", "1")
	done := make(chan any, 1)
	go func() {
		v, _, _, _ := db.Memo([]byte("k"), func() (any, error) {
			v, _ := db.Query([]string{"swm", "a"}, []string{"Swm", "A"})
			return v + fmt.Sprint(db.Len()), nil
		})
		done <- v
	}()
	select {
	case v := <-done:
		if v != "11" {
			t.Fatalf("Memo = %v, want 11", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("build deadlocked: Memo holds the database lock while building")
	}
}

func TestMemoFailedBuildIsNotKept(t *testing.T) {
	db := New()
	boom := errors.New("boom")
	if _, _, _, err := db.Memo([]byte("k"), func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("Memo error = %v, want %v", err, boom)
	}
	builds := 0
	if v, hit := memoCount(t, db, "k", &builds); hit || v != 1 {
		t.Fatalf("after failed build: value %d hit %v, want a fresh build", v, hit)
	}
}

// TestMemoBuildThatPutsIsNotKept: a build that itself mutates the
// database read the old contents; its result is returned to the caller
// but not kept, so the next call rebuilds.
func TestMemoBuildThatPutsIsNotKept(t *testing.T) {
	db := New()
	db.MustPut("swm*a", "1")
	v, hit, _, err := db.Memo([]byte("k"), func() (any, error) {
		db.MustPut("swm*a", "2")
		return "built", nil
	})
	if err != nil || hit || v != "built" {
		t.Fatalf("Memo = %v, %v, %v; want the build's own result", v, hit, err)
	}
	builds := 0
	if v, hit := memoCount(t, db, "k", &builds); hit || v != 1 {
		t.Fatalf("next call: value %d hit %v, want a rebuild", v, hit)
	}
}

// TestMemoBuildStraddlingPutIsNotKept: the same rule when the Put comes
// from another goroutine while build runs.
func TestMemoBuildStraddlingPutIsNotKept(t *testing.T) {
	db := New()
	db.MustPut("swm*a", "1")
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan any)
	go func() {
		v, _, _, _ := db.Memo([]byte("k"), func() (any, error) {
			close(started)
			<-release
			return "straddled", nil
		})
		done <- v
	}()
	<-started
	db.MustPut("swm*a", "2")
	close(release)
	if v := <-done; v != "straddled" {
		t.Fatalf("Memo = %v, want the build's own result", v)
	}
	builds := 0
	if v, hit := memoCount(t, db, "k", &builds); hit || v != 1 {
		t.Fatalf("next call: value %d hit %v, want a rebuild", v, hit)
	}
}

func TestMemoEvictsOldestAtCap(t *testing.T) {
	db := New()
	builds := 0
	for i := 0; i < memoCap; i++ {
		memoCount(t, db, fmt.Sprint(i), &builds)
	}
	_, _, evicted, _ := db.Memo([]byte("one more"), func() (any, error) { return 0, nil })
	if !evicted {
		t.Fatal("Memo past the cap reported no eviction")
	}
	if _, hit := memoCount(t, db, "0", &builds); hit {
		t.Fatal("oldest key survived the eviction")
	}
	if _, hit := memoCount(t, db, fmt.Sprint(memoCap-1), &builds); !hit {
		t.Fatal("newest key was evicted")
	}
}

func TestConcurrentQueryPut(t *testing.T) {
	db := New()
	for i := 0; i < 32; i++ {
		db.MustPut(fmt.Sprintf("swm*res%d", i), fmt.Sprintf("v%d", i))
	}

	const (
		readers = 8
		writes  = 500
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			names := []string{"swm", "panel", fmt.Sprintf("res%d", r)}
			classes := []string{"Swm", "Panel", "Res"}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if v, ok := db.Query(names, classes); ok && v == "" {
					t.Error("Query returned ok with empty value")
					return
				}
				key := []byte(fmt.Sprintf("memo%d", r%4))
				v, _, _, err := db.Memo(key, func() (any, error) {
					// Build from Queries, as core's decorations do.
					w, _ := db.Query(names, classes)
					return w, nil
				})
				if err != nil || v == nil {
					t.Errorf("Memo = %v, %v", v, err)
					return
				}
			}
		}(r)
	}
	for i := 0; i < writes; i++ {
		db.MustPut(fmt.Sprintf("swm*res%d", i%32), fmt.Sprintf("w%d", i))
		if i%16 == 0 {
			clone := db.Clone()
			db.Merge(clone) // identical values: must keep the memo
		}
	}
	close(stop)
	wg.Wait()
}
