package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicField flags == and != between sync/atomic values, such as
// `np.screenIdx != w.screenIdx` for two atomic.Int32 fields. The
// atomic types are comparable structs, so the comparison compiles, and
// go vet's copylocks check does not look at comparisons; yet it reads
// both words plainly, outside the memory model's atomic operations.
// Every other plain use of an atomic value is caught elsewhere: a
// plain read or write does not compile, and a copy by assignment,
// argument, return, range or composite literal is a copylocks finding.
//
// One finding kind: atomicfield.compare.
var AtomicField = &Analyzer{
	Name: "atomicfield",
	Doc:  "flags == and != between sync/atomic values, which compile and pass go vet",
	Run:  runAtomicField,
}

func runAtomicField(p *Pass) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if ok && (be.Op == token.EQL || be.Op == token.NEQ) && isAtomicType(p.Info.TypeOf(be.X)) {
				p.Reportf(be.Pos(), "compare",
					"%s compares sync/atomic values plainly; compare their Load results",
					types.ExprString(be))
			}
			return true
		})
	}
}

// isAtomicType reports whether t is a sync/atomic value type, or an
// array of them.
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
