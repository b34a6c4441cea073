package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder guards the locking discipline of internal/xserver. Request
// methods take `Server.mu` once at their entry, through the writeLock
// doorway, which reports contention, and then work through *Locked
// helpers, which never re-acquire. A shared RLock on a field named `mu`
// counts as an acquire too, so the analyzer also covers packages that
// use a sync.RWMutex.
//
// The analyzer builds the package's intra-package call graph, computes
// per lock class which functions may acquire — the server class is a
// field named `mu` of type sync.Mutex/RWMutex, or a call to the
// writeLock doorway — and reports:
//
//   - lockorder.reentrant — a function that is holding the server lock
//     calls a function that (transitively) acquires it again. The held
//     region runs from an acquire to the next non-deferred release in
//     source order; a deferred unlock holds to the end of the function.
//   - lockorder.held — a function following the *Locked naming
//     convention (callable only with the server lock held exclusively)
//     acquires the lock itself, or calls a function that acquires it.
//   - lockorder.goroutine — a function literal spawned with `go` calls
//     a *Locked helper without first acquiring the lock. A goroutine
//     does not inherit its spawner's lock, so the hold region of the
//     enclosing function never extends into the spawned body; each
//     spawned literal is analyzed as its own context (named like
//     Go does, "Spawner.func1"), starting unheld.
//
// Below the server lock the hierarchy continues through the
// input-dispatch lock to the leaf locks: Server.mu > inputMu >
// Conn.qMu/errMu, with the property cell's propMu a leaf that is never
// held across another acquire. Fields named inputMu, qMu, errMu and
// propMu of type sync.Mutex/RWMutex form four more classes; acquiring
// a lock while holding one of the same or a lower rank (a leaf while
// holding another leaf: leaves are unordered peers) is lockorder.order,
// and re-acquiring any of them while held is lockorder.reentrant.
//
// The region tracking is linear in source order, which is exact for
// the straight-line lock-defer-unlock shape the package uses and a
// safe approximation elsewhere; intentional exceptions carry //swm:ok.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "flags re-entrant or misordered Server.mu acquisition and locking calls from *Locked helpers",
	Run:  runLockOrder,
}

type lockEventKind int

const (
	evAcquire lockEventKind = iota
	evRelease
	evCall
)

// lockClass distinguishes the modeled lock classes, in hierarchy order:
// Server.mu > inputMu > Conn.qMu/errMu and propMu (DESIGN.md §12). The
// leaf locks share a rank and are unordered peers — holding two is
// itself a violation.
type lockClass int

const (
	classServer  lockClass = iota
	classInput             // a field named inputMu (the input-dispatch lock)
	classConnQ             // a field named qMu (per-connection event queue leaf)
	classConnErr           // a field named errMu (per-connection error queue leaf)
	classProp              // a field named propMu (per-property value leaf)
	numLockClasses
)

// lockHierarchy is the order findings quote.
const lockHierarchy = "Server.mu > inputMu > qMu/errMu, propMu a leaf"

// lockClassName renders a class for findings.
func lockClassName(c lockClass) string {
	switch c {
	case classServer:
		return "the server lock"
	case classInput:
		return "inputMu"
	case classConnQ:
		return "qMu"
	case classConnErr:
		return "errMu"
	case classProp:
		return "propMu"
	}
	return "?"
}

// lockRank places a class in the hierarchy; every leaf ranks 2.
func lockRank(c lockClass) int {
	if c > classInput {
		return 2
	}
	return int(c)
}

// orderWhy explains why acquiring c while holding h is misordered.
func orderWhy(c, h lockClass) string {
	if (c == classConnQ || c == classConnErr) && (h == classConnQ || h == classConnErr) {
		return "; the connection leaf locks are unordered peers — never hold both"
	}
	return " (hierarchy is " + lockHierarchy + ")"
}

type lockEvent struct {
	pos    token.Pos
	kind   lockEventKind
	class  lockClass
	callee *types.Func   // for evCall
	call   *ast.CallExpr // for evCall
}

type funcLockInfo struct {
	decl     *ast.FuncDecl
	events   []lockEvent
	acquires [numLockClasses]bool // direct acquire per class
	spawned  []*spawnInfo
}

// spawnInfo is the event stream of one go-spawned function literal (or
// direct `go f(...)` call). It is a separate analysis context from the
// enclosing function: it starts with the lock unheld regardless of
// where the spawn site sits, and its acquisitions do not make the
// enclosing function "acquiring" from its callers' point of view.
type spawnInfo struct {
	name   string
	events []lockEvent
}

func runLockOrder(p *Pass) {
	if p.Pkg == nil {
		return
	}
	infos := make(map[*types.Func]*funcLockInfo)
	for _, fd := range funcDecls(p.Files) {
		fn, ok := p.Info.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		infos[fn] = collectLockEvents(p, fd)
	}

	// mayAcquire per class: direct acquire, or a call (anywhere in the
	// body) to a same-package function that may acquire.
	acquiresFn := func(direct func(*funcLockInfo) bool) func(*types.Func) bool {
		cache := make(map[*types.Func]bool)
		visiting := make(map[*types.Func]bool)
		var rec func(fn *types.Func) bool
		rec = func(fn *types.Func) bool {
			if v, ok := cache[fn]; ok {
				return v
			}
			if visiting[fn] {
				return false // break recursion cycles
			}
			visiting[fn] = true
			defer delete(visiting, fn)
			info, ok := infos[fn]
			if !ok {
				return false
			}
			result := direct(info)
			if !result {
				for _, ev := range info.events {
					if ev.kind == evCall && rec(ev.callee) {
						result = true
						break
					}
				}
			}
			cache[fn] = result
			return result
		}
		return rec
	}
	var acquiresClass [numLockClasses]func(*types.Func) bool
	for c := lockClass(0); c < numLockClasses; c++ {
		c := c
		acquiresClass[c] = acquiresFn(func(i *funcLockInfo) bool { return i.acquires[c] })
	}
	acquiresServer := acquiresClass[classServer]

	for fn, info := range infos {
		heldByName := strings.HasSuffix(fn.Name(), "Locked")
		held := heldByName
		var heldC [numLockClasses]bool // classInput and below
		// misordered returns a held lock below the server lock, other
		// than c itself, that c may not be acquired under.
		misordered := func(c lockClass) (lockClass, bool) {
			for h := classInput; h < numLockClasses; h++ {
				if heldC[h] && h != c && lockRank(h) >= lockRank(c) {
					return h, true
				}
			}
			return 0, false
		}
		for _, ev := range info.events {
			switch {
			case ev.kind == evAcquire && ev.class == classServer:
				if heldByName {
					p.Reportf(ev.pos, "held",
						"%s follows the *Locked convention (lock already held) but acquires the lock itself", fn.Name())
				} else if h, ok := misordered(classServer); ok {
					p.Reportf(ev.pos, "order", "%s acquires the server lock while holding %s%s",
						fn.Name(), lockClassName(h), orderWhy(classServer, h))
				}
				held = true
			case ev.kind == evAcquire:
				label := lockClassName(ev.class)
				if heldC[ev.class] {
					p.Reportf(ev.pos, "reentrant",
						"%s re-acquires %s while holding it (sync.Mutex is not re-entrant)", fn.Name(), label)
				} else if h, ok := misordered(ev.class); ok {
					p.Reportf(ev.pos, "order", "%s acquires %s while holding %s%s",
						fn.Name(), label, lockClassName(h), orderWhy(ev.class, h))
				}
				heldC[ev.class] = true
			case ev.kind == evRelease && ev.class == classServer:
				held = false
			case ev.kind == evRelease:
				heldC[ev.class] = false
			case ev.kind == evCall:
				if acquiresServer(ev.callee) {
					if heldByName {
						p.Reportf(ev.pos, "held",
							"%s follows the *Locked convention (lock already held) but calls %s, which acquires the lock",
							fn.Name(), ev.callee.Name())
					} else if held {
						p.Reportf(ev.pos, "reentrant",
							"%s calls %s while holding the lock; %s re-acquires it (sync.RWMutex is not re-entrant)",
							fn.Name(), ev.callee.Name(), ev.callee.Name())
					} else if h, ok := misordered(classServer); ok {
						p.Reportf(ev.pos, "order", "%s calls %s, which acquires the server lock, while holding %s%s",
							fn.Name(), ev.callee.Name(), lockClassName(h), orderWhy(classServer, h))
					}
				}
				for c := classInput; c < numLockClasses; c++ {
					if !acquiresClass[c](ev.callee) {
						continue
					}
					label := lockClassName(c)
					if heldC[c] {
						p.Reportf(ev.pos, "reentrant",
							"%s calls %s while holding %s; %s re-acquires it (sync.Mutex is not re-entrant)",
							fn.Name(), ev.callee.Name(), label, ev.callee.Name())
					} else if h, ok := misordered(c); ok {
						p.Reportf(ev.pos, "order", "%s calls %s, which acquires %s, while holding %s%s",
							fn.Name(), ev.callee.Name(), label, lockClassName(h), orderWhy(c, h))
					}
				}
			}
		}

		// Spawned goroutine bodies: each is its own context, starting
		// unheld no matter where the spawn site sits. The interesting
		// bug here is the inverse of re-entrancy — a *Locked helper
		// invoked on a goroutine that never took the lock.
		for _, sp := range info.spawned {
			held := false
			for _, ev := range sp.events {
				switch {
				case ev.kind == evAcquire && ev.class == classServer:
					held = true
				case ev.kind == evRelease && ev.class == classServer:
					held = false
				case ev.kind == evCall:
					if acquiresServer(ev.callee) {
						if held {
							p.Reportf(ev.pos, "reentrant",
								"%s calls %s while holding the lock; %s re-acquires it (sync.RWMutex is not re-entrant)",
								sp.name, ev.callee.Name(), ev.callee.Name())
						}
					} else if strings.HasSuffix(ev.callee.Name(), "Locked") && !held {
						p.Reportf(ev.pos, "goroutine",
							"%s runs on a spawned goroutine, which does not inherit the spawner's lock, but calls %s without acquiring it",
							sp.name, ev.callee.Name())
					}
				}
			}
		}
	}
}

// collectLockEvents linearizes a function body into acquire / release /
// intra-package-call events ordered by position. Function literals
// spawned with `go` are carved out into separate spawnInfo contexts —
// their bodies run on another goroutine, so their events neither extend
// the enclosing hold region nor count toward the enclosing function's
// mayAcquire. The spawn statement's arguments, which ARE evaluated on
// the spawning goroutine, stay in the enclosing context.
func collectLockEvents(p *Pass, fd *ast.FuncDecl) *funcLockInfo {
	info := &funcLockInfo{decl: fd}
	spawnN := 0

	var walk func(body ast.Node, events *[]lockEvent, acq *[numLockClasses]bool)
	walk = func(body ast.Node, events *[]lockEvent, acq *[numLockClasses]bool) {
		deferred := make(map[*ast.CallExpr]bool)
		goLit := make(map[*ast.FuncLit]bool)
		goCall := make(map[*ast.CallExpr]bool)
		ast.Inspect(body, func(n ast.Node) bool {
			if gs, ok := n.(*ast.GoStmt); ok {
				spawnN++
				sp := &spawnInfo{name: fmt.Sprintf("%s.func%d", fd.Name.Name, spawnN)}
				info.spawned = append(info.spawned, sp)
				var spAcq [numLockClasses]bool
				if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
					// Analyze the literal's body in the spawn context,
					// and skip it when the outer walk reaches it.
					goLit[lit] = true
					walk(lit.Body, &sp.events, &spAcq)
				} else {
					// `go s.f(...)`: f runs on the new goroutine; only
					// its arguments evaluate here.
					goCall[gs.Call] = true
					if callee := calleeFunc(p.Info, gs.Call); callee != nil && callee.Pkg() == p.Pkg {
						sp.events = append(sp.events, lockEvent{pos: gs.Call.Pos(), kind: evCall, callee: callee, call: gs.Call})
					}
				}
				return true
			}
			if lit, ok := n.(*ast.FuncLit); ok && goLit[lit] {
				return false // already walked as a spawn context
			}
			if ds, ok := n.(*ast.DeferStmt); ok {
				deferred[ds.Call] = true
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if kind, class, isMu := muOp(p.Info, call); isMu {
				// Deferred unlocks hold to function end: no release event.
				if kind == evAcquire {
					*events = append(*events, lockEvent{pos: call.Pos(), kind: evAcquire, class: class})
					acq[class] = true
				} else if !deferred[call] {
					*events = append(*events, lockEvent{pos: call.Pos(), kind: evRelease, class: class})
				}
				return true
			}
			if goCall[call] {
				return true // the call itself runs on the spawned goroutine
			}
			callee := calleeFunc(p.Info, call)
			if callee == nil || callee.Pkg() != p.Pkg {
				return true
			}
			if callee.Name() == "writeLock" {
				// The exclusive doorway: callers release with mu.Unlock.
				*events = append(*events, lockEvent{pos: call.Pos(), kind: evAcquire, class: classServer})
				acq[classServer] = true
			} else {
				*events = append(*events, lockEvent{pos: call.Pos(), kind: evCall, callee: callee, call: call})
			}
			return true
		})
		sort.SliceStable(*events, func(i, j int) bool { return (*events)[i].pos < (*events)[j].pos })
	}
	walk(fd.Body, &info.events, &info.acquires)
	return info
}

// muOp recognizes <expr>.<field>.Lock() / RLock() / Unlock() /
// RUnlock() where the field is a sync.Mutex or sync.RWMutex named for
// one of the modeled classes: `mu` (server), `inputMu`, `qMu`, `errMu`
// or `propMu`.
func muOp(info *types.Info, call *ast.CallExpr) (lockEventKind, lockClass, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return 0, 0, false
	}
	var kind lockEventKind
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = evAcquire
	case "Unlock", "RUnlock":
		kind = evRelease
	default:
		return 0, 0, false
	}
	inner, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return 0, 0, false
	}
	var class lockClass
	switch inner.Sel.Name {
	case "mu":
		class = classServer
	case "inputMu":
		class = classInput
	case "qMu":
		class = classConnQ
	case "errMu":
		class = classConnErr
	case "propMu":
		class = classProp
	default:
		return 0, 0, false
	}
	t := info.Types[inner].Type
	if t == nil {
		return 0, 0, false
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return 0, 0, false
	}
	if name := named.Obj().Name(); name != "Mutex" && name != "RWMutex" {
		return 0, 0, false
	}
	return kind, class, true
}
