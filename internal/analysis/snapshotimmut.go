package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SnapshotImmut enforces the second rule of the lock-free xserver
// scheme: a value published through an atomic.Pointer[T] Store,
// Swap or CompareAndSwap is frozen. Readers hold snapshots with no
// lock; the only legal update is clone-mutate-publish. The analyzer
// flags plain writes (assignment, op-assign, ++/--) whose target chain
// passes through a type that is published somewhere in the package —
// kidSnap, propTab, maskTab, the compiled xrdb trie — unless the
// chain is rooted in memory the function itself allocated and has not
// yet published.
//
// Freshness is tracked per function, optimistically: a local is fresh
// when every value ever assigned to it roots in a fresh allocation
// (&T{}, new, make, a composite literal, append onto nil or fresh, or
// a selector/index/deref chain into another fresh local). Anything
// else — parameters, receivers, package vars, and in particular the
// result of any call, which is where .Load() snapshots come from — is
// tainted, and writes through it are reported. The cyclic builder
// idiom (cur := root; next := cur.kids[k]; cur = next) resolves fresh,
// so clone-before-publish constructors like the xrdb trie compiler
// need no annotations.
//
// Published types in sync/atomic, basic types and interfaces are
// skipped: their contents are either accessed by method anyway or have
// nothing to write through.
//
// One finding kind: snapshotimmut.mutate.
var SnapshotImmut = &Analyzer{
	Name: "snapshotimmut",
	Doc:  "flags writes through values published via atomic.Pointer Store/CompareAndSwap (published snapshots are frozen)",
	Run:  runSnapshotImmut,
}

func runSnapshotImmut(p *Pass) {
	if p.Pkg == nil {
		return
	}
	published := collectPublished(p)
	if len(published) == 0 {
		return
	}
	for _, fd := range funcDecls(p.Files) {
		checkSnapshotWrites(p, fd, published)
	}
}

// collectPublished finds every T for which the package performs an
// atomic.Pointer[T].Store/Swap/CompareAndSwap, keyed by type string,
// with a representative publish position for the finding message.
func collectPublished(p *Pass) map[string]token.Pos {
	published := make(map[string]token.Pos)
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Store", "Swap", "CompareAndSwap":
			default:
				return true
			}
			t := typeOf(p, sel.X)
			if t == nil {
				return true
			}
			elem := atomicPointerElem(t)
			if elem == nil || !publishableType(elem) {
				return true
			}
			key := types.TypeString(elem, nil)
			if _, seen := published[key]; !seen {
				published[key] = call.Pos()
			}
			return true
		})
	}
	return published
}

// atomicPointerElem returns T when t is (a pointer to)
// sync/atomic.Pointer[T], else nil.
func atomicPointerElem(t types.Type) types.Type {
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" || obj.Name() != "Pointer" {
		return nil
	}
	if named.TypeArgs().Len() != 1 {
		return nil
	}
	return named.TypeArgs().At(0)
}

// publishableType reports whether a published T has interior memory a
// plain write could corrupt. Basic types, interfaces and the
// sync/atomic types themselves are out.
func publishableType(t types.Type) bool {
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" {
			return false
		}
	}
	switch t.Underlying().(type) {
	case *types.Basic, *types.Interface:
		return false
	}
	return true
}

func typeOf(p *Pass, e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// isPublishedType reports whether t (through any pointers) is one of
// the package's published snapshot types, returning its key.
func isPublishedType(published map[string]token.Pos, t types.Type) (string, bool) {
	if t == nil {
		return "", false
	}
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	key := types.TypeString(t, nil)
	_, ok := published[key]
	return key, ok
}

// freshness is the per-function optimistic dataflow over local idents.
type freshness struct {
	p       *Pass
	assigns map[*types.Var][]ast.Expr // every RHS ever assigned to the var
	memo    map[*types.Var]bool
	visit   map[*types.Var]bool
}

func newFreshness(p *Pass, fd *ast.FuncDecl) *freshness {
	fr := &freshness{
		p:       p,
		assigns: make(map[*types.Var][]ast.Expr),
		memo:    make(map[*types.Var]bool),
		visit:   make(map[*types.Var]bool),
	}
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		v := fr.identVar(id)
		if v == nil {
			return
		}
		fr.assigns[v] = append(fr.assigns[v], rhs)
	}
	ast.Inspect(fd, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Rhs) == len(st.Lhs) {
				for i := range st.Lhs {
					record(st.Lhs[i], st.Rhs[i])
				}
			} else {
				// a, b := f() — the call result taints every LHS.
				for i := range st.Lhs {
					record(st.Lhs[i], st.Rhs[0])
				}
			}
		case *ast.ValueSpec:
			for i, name := range st.Names {
				if i < len(st.Values) {
					record(name, st.Values[i])
				} else if len(st.Values) == 0 && st.Type != nil {
					// var x T — zero value, owned by the function.
					record(name, nil)
				}
			}
		case *ast.RangeStmt:
			// for _, v := range x: v roots wherever x roots.
			if st.Value != nil {
				record(st.Value, st.X)
			}
			if st.Key != nil {
				record(st.Key, nil) // indices/keys are values, always fresh
			}
		}
		return true
	})
	return fr
}

func (fr *freshness) identVar(id *ast.Ident) *types.Var {
	obj := fr.p.Info.Defs[id]
	if obj == nil {
		obj = fr.p.Info.Uses[id]
	}
	v, _ := obj.(*types.Var)
	return v
}

// freshExpr reports whether e roots in function-owned, not-yet-published
// memory. nil RHS (recorded for zero values and range keys) is fresh.
func (fr *freshness) freshExpr(e ast.Expr) bool {
	if e == nil {
		return true
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit, *ast.BasicLit, *ast.FuncLit:
		_ = x
		return true
	case *ast.UnaryExpr:
		u := x
		if u.Op == token.AND {
			return fr.freshExpr(u.X)
		}
		return true // numeric/boolean value, not a pointer
	case *ast.SelectorExpr:
		// package.Ident selections have no X variable to chase.
		if _, ok := fr.p.Info.Selections[x]; !ok {
			return false
		}
		return fr.freshExpr(x.X)
	case *ast.IndexExpr:
		return fr.freshExpr(x.X)
	case *ast.SliceExpr:
		return fr.freshExpr(x.X)
	case *ast.StarExpr:
		return fr.freshExpr(x.X)
	case *ast.Ident:
		if x.Name == "nil" {
			return true
		}
		v := fr.identVar(x)
		if v == nil {
			// Constants and such — values, not aliases.
			_, isConst := fr.p.Info.Uses[x].(*types.Const)
			return isConst
		}
		return fr.freshVar(v)
	case *ast.CallExpr:
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			switch id.Name {
			case "new", "make":
				if _, isBuiltin := fr.p.Info.Uses[id].(*types.Builtin); isBuiltin {
					return true
				}
			case "append":
				if _, isBuiltin := fr.p.Info.Uses[id].(*types.Builtin); isBuiltin && len(x.Args) > 0 {
					return fr.freshExpr(x.Args[0])
				}
			}
		}
		// Conversion: freshness passes through, []byte(nil) etc.
		if tv, ok := fr.p.Info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return fr.freshExpr(x.Args[0])
		}
		// Any real call — including .Load() — yields shared memory.
		return false
	case *ast.TypeAssertExpr:
		return fr.freshExpr(x.X)
	case *ast.BinaryExpr:
		return true // arithmetic/comparison results carry no pointers we track
	}
	return false
}

// freshVar is the coinductive var judgment: fresh iff the function
// assigns it and every assignment is fresh. Cycles (cur = next; next
// drawn from cur's subtree) resolve optimistically to fresh, which is
// exactly the builder idiom.
func (fr *freshness) freshVar(v *types.Var) bool {
	if r, ok := fr.memo[v]; ok {
		return r
	}
	if fr.visit[v] {
		return true
	}
	rhss, ok := fr.assigns[v]
	if !ok {
		// Parameter, receiver, package var, or captured from an outer
		// function: shared memory.
		fr.memo[v] = false
		return false
	}
	fr.visit[v] = true
	res := true
	for _, rhs := range rhss {
		if !fr.freshExpr(rhs) {
			res = false
			break
		}
	}
	delete(fr.visit, v)
	fr.memo[v] = res
	return res
}

func checkSnapshotWrites(p *Pass, fd *ast.FuncDecl, published map[string]token.Pos) {
	fr := newFreshness(p, fd)
	checkTarget := func(lhs ast.Expr) {
		key, pos, passes := writeThroughPublished(p, published, lhs)
		if !passes {
			return
		}
		if fr.freshExpr(lhs) {
			return
		}
		p.Reportf(pos, "mutate",
			"write through snapshot type %s published by atomic.Pointer (publish at %s); published memory is frozen — clone, mutate, then Store",
			key, p.Fset.Position(published[key]))
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				checkTarget(lhs)
			}
		case *ast.IncDecStmt:
			checkTarget(st.X)
		}
		return true
	})
}

// writeThroughPublished walks a write target's access chain and reports
// whether any operand along it has a published snapshot type. Plain
// ident targets (rebinding a variable) are never memory writes.
func writeThroughPublished(p *Pass, published map[string]token.Pos, lhs ast.Expr) (key string, pos token.Pos, passes bool) {
	cur := ast.Unparen(lhs)
	for {
		var x ast.Expr
		switch t := cur.(type) {
		case *ast.SelectorExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.StarExpr:
			x = t.X
		case *ast.ParenExpr:
			cur = t.X
			continue
		default:
			return key, pos, passes
		}
		if k, ok := isPublishedType(published, typeOf(p, x)); ok && !passes {
			key, pos, passes = k, cur.Pos(), true
		}
		cur = ast.Unparen(x)
	}
}
