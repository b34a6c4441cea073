// Package snapshotimmut is the golden fixture for the snapshotimmut
// analyzer: memory published through an atomic.Pointer Store or
// CompareAndSwap is frozen. Writes through a loaded snapshot are
// findings; the clone-mutate-publish loop and the cyclic builder idiom
// (the xrdb trie compiler's shape) are clean.
package snapshotimmut

import "sync/atomic"

type snap struct {
	items []int
	name  string
}

type holder struct {
	cur atomic.Pointer[snap]
}

// mutateLoaded writes through a loaded snapshot: both writes flagged.
func (h *holder) mutateLoaded(v int) {
	s := h.cur.Load()
	s.items[0] = v   // want `published memory is frozen`
	s.name = "dirty" // want `published memory is frozen`
}

// replaceCloned is the sanctioned clone-mutate-publish loop.
func (h *holder) replaceCloned(v int) {
	for {
		old := h.cur.Load()
		ns := &snap{name: "clean"}
		if old != nil {
			ns.items = append([]int(nil), old.items...)
		}
		if len(ns.items) > 0 {
			ns.items[0] = v
		}
		if h.cur.CompareAndSwap(old, ns) {
			return
		}
	}
}

// node/reg mimic the xrdb trie compiler: a cyclic builder chain
// (cur = next drawn from cur's own subtree) stays fresh until the
// final Store publishes the root.
type node struct {
	kids map[string]*node
	hits int
}

type reg struct {
	root atomic.Pointer[node]
}

func (r *reg) rebuild(keys []string) {
	root := &node{kids: map[string]*node{}}
	cur := root
	for _, k := range keys {
		m := &cur.kids
		next := (*m)[k]
		if next == nil {
			next = &node{kids: map[string]*node{}}
			(*m)[k] = next
		}
		cur = next
		cur.hits++
	}
	r.root.Store(root)
}

// appendPast is the documented append-only exception, waived.
func (h *holder) appendPast(v int) {
	s := h.cur.Load()
	if s == nil {
		return
	}
	//swm:ok fixture: append-only write past the published length
	s.items = append(s.items, v)
}

// payload/cacheSlot mimic the fleet query cache: a generation-tagged
// pre-rendered body published behind an atomic.Pointer. Publishing a
// fresh composite literal whose body came from a render call is the
// sanctioned shape; the analyzer must not demand a clone of bytes
// nothing else aliases.
type payload struct {
	gen  uint64
	body []byte
}

type cacheSlot struct {
	cur atomic.Pointer[payload]
}

func render(gen uint64) []byte { return []byte{byte(gen)} }

// publishFresh is the cache's store path: fresh allocation, fresh
// bytes, no writes after Store. Clean.
func (c *cacheSlot) publishFresh(gen uint64) {
	c.cur.Store(&payload{gen: gen, body: render(gen)})
}

// serveCached reads the published payload without writing it. Clean.
func (c *cacheSlot) serveCached(gen uint64) []byte {
	if p := c.cur.Load(); p != nil && p.gen == gen {
		return p.body
	}
	return nil
}

// scribbleCached mutates a served payload in place — the bug the cache
// contract forbids: every reader of the cached bytes would see the
// edit.
func (c *cacheSlot) scribbleCached() {
	p := c.cur.Load()
	if p == nil {
		return
	}
	p.body[0] = '!' // want `published memory is frozen`
	p.gen++         // want `published memory is frozen`
}

// maskSel/maskTab/window mirror xserver's published event-mask table.
type maskSel struct {
	conn int
	mask uint32
}

type maskTab struct {
	sel []maskSel
}

type window struct {
	masks atomic.Pointer[maskTab]
}

// setMask mirrors xserver's setMask rewriting the caller's entry of the
// published table in place instead of publishing a new table: it
// builds, vets, and passes every test and race run.
func (w *window) setMask(c int, mask uint32) {
	if tp := w.masks.Load(); tp != nil {
		for i := range tp.sel {
			if tp.sel[i].conn == c {
				tp.sel[i].mask = mask // want `published memory is frozen`
				return
			}
		}
	}
	w.masks.Store(&maskTab{sel: []maskSel{{conn: c, mask: mask}}})
}
