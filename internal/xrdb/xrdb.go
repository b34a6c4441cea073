// Package xrdb implements an X resource manager (Xrm) style database:
// the configuration substrate the paper builds swm on. It supports the
// full Xrm matching model — tight (".") and loose ("*") bindings,
// name-vs-class component matching, "?" single-component wildcards —
// with the standard X precedence rules, plus parsing of resource files
// with comments and line continuations.
//
// swm stores *all* of its configuration here (the paper calls this out
// as a deliberate improvement over twm's private .twmrc file): panel
// definitions, object attributes, bindings, per-screen and per-client
// ("specific") resources.
//
// A DB also memoizes values derived from its contents (Memo): core
// keeps its decoration prototypes there, so every window manager on
// one database shares them, and the same mutation that retires the
// compiled query trie drops them.
package xrdb

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Binding says how a component is attached to its predecessor.
type Binding int

const (
	// Tight ('.') requires the component to match the very next level.
	Tight Binding = iota
	// Loose ('*') allows any number of levels to be skipped first.
	Loose
)

// component is one level of a resource specifier.
type component struct {
	binding Binding
	name    string // "?" is a single-level wildcard
}

// entry is a stored resource.
type entry struct {
	components []component
	value      string
	seq        int // insertion order; later entries override equal specifiers
}

// DB is a resource database. The zero value is ready to use.
//
// Unlike the Xrm it models, a DB is safe for concurrent use: fleet mode
// shares one template database across every session in the process.
// Queries walk an immutable compiled snapshot published through an
// atomic pointer, so the warm read path takes no lock and performs no
// allocation; mutators serialize on mu, edit the entry list, and retire
// the snapshot. A Put therefore can never scribble on a trie another
// session is mid-walk through — the old snapshot stays intact until its
// last reader drops it.
type DB struct {
	// mu guards entries, nextSeq and memo, and serializes snapshot
	// compilation. It is never held while walking the trie.
	mu      sync.Mutex
	entries []entry
	nextSeq int
	// snap is the compiled matching automaton Query walks: one node per
	// stored specifier prefix, children keyed by (binding, name). It is
	// built lazily on the first Query after a mutation — any write may
	// change any answer, so writes simply retire the whole structure —
	// and once published a snapshot is immutable.
	snap atomic.Pointer[trieNode]
	// memo holds values callers derived from the current contents (see
	// Memo). It is guarded by mu and retired together with snap, so it
	// never outlives the entries it was derived from.
	memo *memo
}

// memoCap bounds the memo. Real sessions derive a handful of values;
// the cap only matters for adversarial resource files that name a new
// panel per client, and FIFO eviction keeps even that case bounded
// without bookkeeping on the hit path.
const memoCap = 64

type memo struct {
	vals  map[string]any
	order []string // insertion order, for FIFO eviction
}

// New returns an empty database.
func New() *DB {
	return &DB{}
}

// Len reports the number of stored entries.
func (db *DB) Len() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.entries)
}

// Put stores value under the given specifier, e.g.
// "swm.monochrome.screen0.XClock.xclock.decoration" or
// "Swm*panel.openLook". A later Put with an identical specifier
// overrides the earlier one.
//
// A Put that changes nothing — identical specifier, identical value —
// is a no-op and keeps the compiled trie and the memo. Session startup
// re-asserts template resources (the panner writes its sticky resource
// on every construction), and without this guard each such write would
// flush every session's decoration prototypes for an answer that could
// not have changed.
func (db *DB) Put(specifier, value string) error {
	comps, err := parseSpecifier(specifier)
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	// Exact-specifier override.
	for i := range db.entries {
		if sameComponents(db.entries[i].components, comps) {
			if db.entries[i].value == value {
				return nil // nothing any Query returns can have changed
			}
			db.entries[i].value = value
			db.entries[i].seq = db.nextSeq
			db.nextSeq++
			db.retireSnapshotLocked()
			return nil
		}
	}
	db.entries = append(db.entries, entry{components: comps, value: value, seq: db.nextSeq})
	db.nextSeq++
	db.retireSnapshotLocked()
	return nil
}

// retireSnapshotLocked drops the compiled trie and the memo after a
// mutation; any stored entry can change any query's answer. Readers
// holding the old snapshot keep walking it safely — it is immutable —
// they just describe the previous contents.
func (db *DB) retireSnapshotLocked() {
	db.snap.Store(nil)
	db.memo = nil
}

// Memo returns the value derived from the current contents under key,
// calling build on a miss; hit says whether it came from the memo and
// evicted whether keeping it pushed out the oldest value. Keys share
// one namespace per database, so callers prefix them with what they
// derive. A lookup does not allocate.
//
// build runs with no lock held, since it issues Queries that may
// compile the trie under mu. Its result is kept only if no mutation
// landed while it ran (it may describe either state) and it did not
// fail; either way it is returned. Kept values are shared by every
// caller on this database, so they must never be mutated.
func (db *DB) Memo(key []byte, build func() (any, error)) (v any, hit, evicted bool, err error) {
	db.mu.Lock()
	if db.memo == nil {
		db.memo = &memo{vals: make(map[string]any)}
	}
	m := db.memo
	v, hit = m.vals[string(key)]
	db.mu.Unlock()
	if hit {
		return v, true, false, nil
	}
	if v, err = build(); err != nil {
		return nil, false, false, err
	}
	// m is the memo the lookup missed in. A mutation while build ran has
	// retired it, so a result that straddled one lands where no later
	// lookup looks.
	db.mu.Lock()
	defer db.mu.Unlock()
	k := string(key)
	if _, dup := m.vals[k]; dup {
		return v, false, false, nil // a concurrent build kept its own
	}
	if len(m.order) >= memoCap {
		delete(m.vals, m.order[0])
		m.order = m.order[1:]
		evicted = true
	}
	m.vals[k] = v
	m.order = append(m.order, k)
	return v, false, evicted, nil
}

// MustPut is Put that panics on malformed specifiers; for use with
// compile-time template constants.
func (db *DB) MustPut(specifier, value string) {
	if err := db.Put(specifier, value); err != nil {
		panic(err)
	}
}

func sameComponents(a, b []component) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func parseSpecifier(spec string) ([]component, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, fmt.Errorf("xrdb: empty specifier")
	}
	var comps []component
	binding := Tight
	var cur strings.Builder
	flush := func() error {
		if cur.Len() == 0 {
			if binding == Loose && len(comps) == 0 {
				// Leading '*' is allowed: "*foo".
				return nil
			}
			return fmt.Errorf("xrdb: empty component in %q", spec)
		}
		comps = append(comps, component{binding: binding, name: cur.String()})
		cur.Reset()
		return nil
	}
	for i := 0; i < len(spec); i++ {
		switch ch := spec[i]; ch {
		case '.':
			if cur.Len() == 0 && len(comps) == 0 {
				return nil, fmt.Errorf("xrdb: specifier %q starts with '.'", spec)
			}
			if cur.Len() == 0 {
				// "a..b" — empty component.
				return nil, fmt.Errorf("xrdb: empty component in %q", spec)
			}
			if err := flush(); err != nil {
				return nil, err
			}
			binding = Tight
		case '*':
			if cur.Len() > 0 {
				if err := flush(); err != nil {
					return nil, err
				}
			}
			binding = Loose
		default:
			cur.WriteByte(ch)
		}
	}
	if cur.Len() == 0 {
		return nil, fmt.Errorf("xrdb: specifier %q ends with a binding", spec)
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return comps, nil
}

// Query looks up the value matching the fully-qualified names and
// classes (parallel slices, one element per level). It returns the
// best-matching value under X precedence rules and whether any entry
// matched. The walk runs over an immutable compiled snapshot loaded
// through one atomic read — lock-free and allocation-free on the warm
// path; the first Query after a mutation pays a one-time compile under
// the database lock.
func (db *DB) Query(names, classes []string) (string, bool) {
	if len(names) != len(classes) || len(names) == 0 {
		return "", false
	}
	t := db.snap.Load()
	if t == nil {
		t = db.compileSnapshot()
	}
	n := t.find(names, classes, 0, false)
	if n == nil {
		return "", false
	}
	return n.value, true
}

// compileSnapshot builds and publishes the trie for the current entry
// set. Concurrent callers race benignly: the double-check under mu
// makes the compile once-per-generation, and whichever snapshot wins
// publication is correct for the entries it was built from.
func (db *DB) compileSnapshot() *trieNode {
	db.mu.Lock()
	defer db.mu.Unlock()
	if t := db.snap.Load(); t != nil {
		return t
	}
	t := compileTrie(db.entries)
	db.snap.Store(t)
	return t
}

// trieNode is one state of the compiled matcher: the set of stored
// specifiers sharing a component prefix. Children are split by the
// binding of the edge leading to them, because precedence ranks tight
// matches above loose ones and only loose edges may absorb skipped
// query levels.
type trieNode struct {
	tight map[string]*trieNode
	loose map[string]*trieNode
	value string
	leaf  bool // a stored specifier ends exactly here
}

func compileTrie(entries []entry) *trieNode {
	root := &trieNode{}
	for i := range entries {
		e := &entries[i]
		cur := root
		for _, c := range e.components {
			m := &cur.tight
			if c.binding == Loose {
				m = &cur.loose
			}
			if *m == nil {
				*m = make(map[string]*trieNode)
			}
			next := (*m)[c.name]
			if next == nil {
				next = &trieNode{}
				(*m)[c.name] = next
			}
			cur = next
		}
		// Put collapses duplicate specifiers, so each leaf is claimed by
		// exactly one entry and no seq tie-break is needed here.
		cur.leaf = true
		cur.value = e.value
	}
	return root
}

// find returns the leaf for the best match of names/classes[li:] from
// this state, or nil. Branches are tried in per-level precedence order
// (tight name > tight class > tight "?" > the loose forms > skipping
// the level), so the first complete match found is the lexicographic
// maximum — the same answer the brute-force scorer picks. A score
// vector pins down the full component sequence that produced it
// (each non-skipped level fixes its component's name and binding), so
// two distinct entries can never tie and no seq comparison is needed.
//
// skipped means the previous level was consumed by a loose binding: the
// walk is committed to one of this node's loose components, so tight
// edges and leaf acceptance are off the table until a loose edge is
// taken.
func (n *trieNode) find(names, classes []string, li int, skipped bool) *trieNode {
	if li == len(names) {
		if !skipped && n.leaf {
			return n
		}
		return nil
	}
	name, class := names[li], classes[li]
	if !skipped && n.tight != nil {
		if c := n.tight[name]; c != nil {
			if r := c.find(names, classes, li+1, false); r != nil {
				return r
			}
		}
		if class != name {
			if c := n.tight[class]; c != nil {
				if r := c.find(names, classes, li+1, false); r != nil {
					return r
				}
			}
		}
		if name != "?" && class != "?" {
			if c := n.tight["?"]; c != nil {
				if r := c.find(names, classes, li+1, false); r != nil {
					return r
				}
			}
		}
	}
	if n.loose != nil {
		if c := n.loose[name]; c != nil {
			if r := c.find(names, classes, li+1, false); r != nil {
				return r
			}
		}
		if class != name {
			if c := n.loose[class]; c != nil {
				if r := c.find(names, classes, li+1, false); r != nil {
					return r
				}
			}
		}
		if name != "?" && class != "?" {
			if c := n.loose["?"]; c != nil {
				if r := c.find(names, classes, li+1, false); r != nil {
					return r
				}
			}
		}
		// Lowest precedence: a loose component absorbs this level.
		if r := n.find(names, classes, li+1, true); r != nil {
			return r
		}
	}
	return nil
}

// QueryString is Query for dotted full name/class strings, e.g.
// QueryString("swm.color.screen0.xclock.decoration",
//
//	"Swm.Color.Screen0.XClock.Decoration").
func (db *DB) QueryString(fullName, fullClass string) (string, bool) {
	return db.Query(strings.Split(fullName, "."), strings.Split(fullClass, "."))
}

// Match levels are encoded per query level as a single int so that
// lexicographic comparison across levels implements X precedence:
// higher is better at each level. The trie walk above realizes the
// same ordering by branch order; the constants and compareScores are
// the currency of the brute-force reference (reference_test.go) that
// cross-checks it.
const (
	scoreSkipped  = 0 // level consumed by a loose binding
	scoreWildcard = 1 // matched by "?"
	scoreClass    = 2 // matched the class
	scoreName     = 3 // matched the instance name
	scoreTightBit = 4 // added when the component's binding was Tight
)

func compareScores(a, b []int) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if a[i] > b[i] {
				return 1
			}
			return -1
		}
	}
	// Equal-length queries produce equal-length scores, so this is only
	// a safety net.
	return len(a) - len(b)
}

// --- Parsing resource files -------------------------------------------------

// IncludeResolver maps an include name from a `#include "name"`
// directive to resource-file source. The paper (§3): users "include and
// then override defaults in a standard template file" — swm passes a
// resolver over the shipped templates.
type IncludeResolver func(name string) (string, bool)

// Load parses resource lines from r into the database. The syntax
// follows X resource files: "specifier: value" per line, "!" comments,
// "#include \"name\"" directives (resolved by LoadWithIncludes; ignored
// here), other "#" directives ignored, backslash line continuation, and
// newline escapes inside values (used heavily by swm panel and bindings
// definitions).
func (db *DB) Load(r io.Reader) error {
	return db.load(r, nil, 0)
}

// LoadWithIncludes is Load with `#include "name"` support: included
// sources load first, so later lines override them.
func (db *DB) LoadWithIncludes(r io.Reader, resolve IncludeResolver) error {
	return db.load(r, resolve, 0)
}

const maxIncludeDepth = 8

func (db *DB) load(r io.Reader, resolve IncludeResolver, depth int) error {
	if depth > maxIncludeDepth {
		return fmt.Errorf("xrdb: includes nested deeper than %d", maxIncludeDepth)
	}
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineno := 0
	var pending string
	for scanner.Scan() {
		lineno++
		line := scanner.Text()
		if pending != "" {
			line = pending + line
			pending = ""
		}
		if strings.HasSuffix(line, "\\") {
			pending = line[:len(line)-1] + "\n"
			continue
		}
		if name, ok := includeDirective(line); ok {
			if resolve == nil {
				continue // plain Load ignores directives
			}
			src, found := resolve(name)
			if !found {
				return fmt.Errorf("xrdb: line %d: unknown include %q", lineno, name)
			}
			if err := db.load(strings.NewReader(src), resolve, depth+1); err != nil {
				return err
			}
			continue
		}
		if err := db.loadLine(line, lineno); err != nil {
			return err
		}
	}
	if pending != "" {
		if err := db.loadLine(strings.TrimSuffix(pending, "\n"), lineno); err != nil {
			return err
		}
	}
	return scanner.Err()
}

// includeDirective parses `#include "name"` lines.
func includeDirective(line string) (string, bool) {
	trimmed := strings.TrimSpace(line)
	if !strings.HasPrefix(trimmed, "#include") {
		return "", false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(trimmed, "#include"))
	rest = strings.Trim(rest, "\"<>")
	if rest == "" {
		return "", false
	}
	return rest, true
}

// LoadString is Load from a string.
func (db *DB) LoadString(s string) error {
	return db.Load(strings.NewReader(s))
}

func (db *DB) loadLine(line string, lineno int) error {
	trimmed := strings.TrimSpace(line)
	if trimmed == "" || strings.HasPrefix(trimmed, "!") || strings.HasPrefix(trimmed, "#") {
		return nil
	}
	// The separator is the first ':' — values may contain further colons
	// (e.g. bindings "<Btn1> : f.raise").
	idx := strings.Index(line, ":")
	if idx < 0 {
		return fmt.Errorf("xrdb: line %d: missing ':' in %q", lineno, line)
	}
	spec := strings.TrimSpace(line[:idx])
	value := strings.TrimPrefix(line[idx+1:], " ")
	value = strings.TrimLeft(value, " \t")
	if err := db.Put(spec, value); err != nil {
		return fmt.Errorf("xrdb: line %d: %w", lineno, err)
	}
	return nil
}

// specifierString reassembles the resource-file spelling of a stored
// component sequence.
func specifierString(comps []component) string {
	var sb strings.Builder
	for i, c := range comps {
		if c.binding == Loose {
			sb.WriteByte('*')
		} else if i > 0 {
			sb.WriteByte('.')
		}
		sb.WriteString(c.name)
	}
	return sb.String()
}

// snapshotEntries copies the entry list under the lock so callers can
// iterate it without holding mu (components are never mutated in place,
// so sharing the inner slices is safe).
func (db *DB) snapshotEntries() []entry {
	db.mu.Lock()
	defer db.mu.Unlock()
	return append([]entry(nil), db.entries...)
}

// Dump writes the database back out in resource-file syntax, sorted by
// specifier for determinism (used by tests and f.places debugging).
func (db *DB) Dump(w io.Writer) error {
	entries := db.snapshotEntries()
	lines := make([]string, 0, len(entries))
	for _, e := range entries {
		value := strings.ReplaceAll(e.value, "\n", "\\\n")
		lines = append(lines, fmt.Sprintf("%s: %s", specifierString(e.components), value))
	}
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}

// Clone returns a deep copy of the database, used when the WM overlays
// user resources on top of a template. The clone starts with an empty
// memo: it shares no derived value with its parent.
func (db *DB) Clone() *DB {
	entries := db.snapshotEntries()
	out := New()
	for _, e := range entries {
		comps := append([]component(nil), e.components...)
		out.entries = append(out.entries, entry{components: comps, value: e.value, seq: out.nextSeq})
		out.nextSeq++
	}
	return out
}

// Merge copies every entry of other into db, with other's entries taking
// precedence on exact specifier collisions (user overrides template).
// Other's entries are snapshotted first, so merging databases in
// opposite orders from two goroutines cannot deadlock.
func (db *DB) Merge(other *DB) {
	for _, e := range other.snapshotEntries() {
		db.MustPut(specifierString(e.components), e.value)
	}
}
