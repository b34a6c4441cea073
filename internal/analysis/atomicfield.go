package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AtomicField enforces the first rule of the lock-free xserver scheme:
// a struct field is either atomic or it is not — never both. The bug
// class this kills is the mixed access `-race` only catches when a
// test happens to interleave: one site updates a counter with
// atomic.AddInt64 while another reads it bare, or an atomic.Uint64 is
// copied as a plain value (which tears nothing today and everything
// after the next refactor).
//
// Two finding kinds:
//
//   - atomicfield.copy — a field whose type lives in sync/atomic
//     (atomic.Uint64, atomic.Pointer[T], an array of them, ...) is
//     used as a plain value: assigned, copied, compared, passed, or
//     ranged over. Atomics are access-by-method only; the Go memory
//     model gives a plain copy of one no meaning.
//   - atomicfield.mixed — a field that some site accesses through the
//     sync/atomic package functions (atomic.AddInt64(&s.n, 1)) is read
//     or written plainly elsewhere. The finding names the atomic site
//     so the mixed-access pair is exact.
//
// Plain access inside the owning type's constructor — a function
// returning the struct type whose name starts with "new"/"New"/
// "make"/"Make" — is exempt: before the value is shared there is no
// concurrent reader to race with. Composite-literal field keys are
// construction, not access, and are never flagged.
var AtomicField = &Analyzer{
	Name: "atomicfield",
	Doc:  "flags struct fields accessed both atomically and plainly, and atomic-typed fields copied as plain values",
	Run:  runAtomicField,
}

// isAtomicAccessFunc matches the sync/atomic package-level access
// functions; a &x.f argument to one makes f an atomically-accessed
// field. Methods (atomic.Pointer[T].Store and friends) are excluded:
// their pointer arguments are stored values, not access targets.
func isAtomicAccessFunc(f *types.Func) bool {
	if f.Pkg() == nil || f.Pkg().Path() != "sync/atomic" {
		return false
	}
	if sig, ok := f.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return false
	}
	for _, prefix := range []string{"Load", "Store", "Add", "Swap", "CompareAndSwap", "And", "Or"} {
		if strings.HasPrefix(f.Name(), prefix) {
			return true
		}
	}
	return false
}

// isAtomicType reports whether t is a sync/atomic value type, or an
// array of them (copying the array copies every atomic in it).
func isAtomicType(t types.Type) bool {
	switch u := t.(type) {
	case *types.Named:
		obj := u.Obj()
		return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
	case *types.Array:
		return isAtomicType(u.Elem())
	}
	return false
}

// fieldOwner returns the named struct type declaring field, or nil.
func fieldOwner(p *Pass, field *types.Var) *types.Named {
	if field.Pkg() == nil {
		return nil
	}
	scope := field.Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == field {
				return named
			}
		}
	}
	return nil
}

// isConstructorOf reports whether fd is a constructor for the named
// type: its name starts with new/make (any case) and some result is
// the type (by value or pointer).
func isConstructorOf(p *Pass, fd *ast.FuncDecl, owner *types.Named) bool {
	if owner == nil || fd == nil {
		return false
	}
	lower := strings.ToLower(fd.Name.Name)
	if !strings.HasPrefix(lower, "new") && !strings.HasPrefix(lower, "make") {
		return false
	}
	fn, ok := p.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	for i := 0; i < sig.Results().Len(); i++ {
		t := sig.Results().At(i).Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj() == owner.Obj() {
			return true
		}
	}
	return false
}

// fieldAccess is one syntactic use of a struct field.
type fieldAccess struct {
	sel     *ast.SelectorExpr
	field   *types.Var
	fd      *ast.FuncDecl // enclosing function, nil at package level
	parent  ast.Node      // immediate parent node of sel
	gparent ast.Node      // parent of parent
}

func runAtomicField(p *Pass) {
	if p.Pkg == nil {
		return
	}

	// One walk collects every field selection with its parent chain,
	// and every &x.f passed to a sync/atomic access function.
	var accesses []fieldAccess
	atomicallyUsed := make(map[*types.Var]token.Pos) // field -> representative atomic site
	atomicArg := make(map[*ast.SelectorExpr]bool)    // selections inside a sanctioned &f atomic arg

	for _, file := range p.Files {
		var fd *ast.FuncDecl
		parents := make([]ast.Node, 0, 32)
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				popped := parents[len(parents)-1]
				parents = parents[:len(parents)-1]
				if popped == ast.Node(fd) {
					fd = nil
				}
				return true
			}
			if d, ok := n.(*ast.FuncDecl); ok {
				fd = d
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if f := calleeFunc(p.Info, call); f != nil && isAtomicAccessFunc(f) {
					for _, arg := range call.Args {
						if un, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && un.Op == token.AND {
							if sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr); ok {
								if field := selectedField(p, sel); field != nil {
									if _, seen := atomicallyUsed[field]; !seen {
										atomicallyUsed[field] = sel.Pos()
									}
									atomicArg[sel] = true
								}
							}
						}
					}
				}
			}
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if field := selectedField(p, sel); field != nil {
					var parent, gparent ast.Node
					if len(parents) > 0 {
						parent = parents[len(parents)-1]
					}
					if len(parents) > 1 {
						gparent = parents[len(parents)-2]
					}
					accesses = append(accesses, fieldAccess{
						sel: sel, field: field, fd: fd, parent: parent, gparent: gparent,
					})
				}
			}
			parents = append(parents, n)
			return true
		})
	}

	ownerCache := make(map[*types.Var]*types.Named)
	owner := func(field *types.Var) *types.Named {
		if o, ok := ownerCache[field]; ok {
			return o
		}
		o := fieldOwner(p, field)
		ownerCache[field] = o
		return o
	}

	for _, acc := range accesses {
		if isConstructorOf(p, acc.fd, owner(acc.field)) {
			continue
		}
		if isAtomicType(acc.field.Type()) {
			if !atomicValueUseOK(acc) {
				p.Reportf(acc.sel.Pos(), "copy",
					"atomic field %s.%s used as a plain value; sync/atomic types must be accessed through their methods",
					ownerName(owner(acc.field)), acc.field.Name())
			}
			continue
		}
		if at, ok := atomicallyUsed[acc.field]; ok && !atomicArg[acc.sel] {
			p.Reportf(acc.sel.Pos(), "mixed",
				"field %s.%s is accessed atomically (%s) but read or written plainly here; pick one discipline",
				ownerName(owner(acc.field)), acc.field.Name(), p.Fset.Position(at))
		}
	}
}

func ownerName(owner *types.Named) string {
	if owner == nil {
		return "?"
	}
	return owner.Obj().Name()
}

// selectedField resolves sel to the struct field it selects, or nil
// for methods, package selectors and unresolved expressions.
func selectedField(p *Pass, sel *ast.SelectorExpr) *types.Var {
	s, ok := p.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, ok := s.Obj().(*types.Var)
	if !ok || !v.IsField() {
		return nil
	}
	return v
}

// atomicValueUseOK reports whether a selection of an atomic-typed
// field appears in a sanctioned context: as the receiver of a method
// call (x.f.Load()), indexed then used as a receiver or address
// (x.f[i].Store(v), &x.f[i]), with its address taken (&x.f), sliced
// (aliasing, not copying), measured with len/cap, or ranged over by
// index only (which copies nothing).
func atomicValueUseOK(acc fieldAccess) bool {
	switch parent := acc.parent.(type) {
	case *ast.SelectorExpr:
		// x.f.Load() — method selection on the atomic value; atomics
		// export no fields, so any selection is a method.
		return parent.X == acc.sel
	case *ast.UnaryExpr:
		return parent.Op == token.AND
	case *ast.SliceExpr:
		return parent.X == acc.sel
	case *ast.RangeStmt:
		return parent.X == acc.sel && parent.Value == nil
	case *ast.CallExpr:
		if id, ok := parent.Fun.(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") {
			return true
		}
		return false
	case *ast.IndexExpr:
		// x.f[i]: fine when the element is then used by method or
		// address; the index expression itself yields an atomic value,
		// so inspect the grandparent.
		if parent.X != acc.sel {
			return false
		}
		switch gp := acc.gparent.(type) {
		case *ast.SelectorExpr:
			return gp.X == parent
		case *ast.UnaryExpr:
			return gp.Op == token.AND
		}
		return false
	}
	return false
}
