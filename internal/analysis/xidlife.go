package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// XIDLife is a leak heuristic for XID-creating requests. A window
// created by (*Conn).CreateWindow or a raw allocID/AllocXID whose
// identifier never escapes the creating function can never be destroyed
// or rolled back: nothing else will ever hold its XID, so the
// server-side window outlives every reference to it. Manage's rollback
// and the panner's miniature index both depend on the discipline that
// every created XID reaches either a tracked struct field or a destroy
// path.
//
// The identifier "escapes" when it is used as a call argument or
// receiver, returned, stored into a struct field, map, slice, or
// another variable, or placed in a composite literal. Uses that only
// compare or discard it (`if id == 0`, `_ = id`) do not count: such a
// window is provably unreachable after the function returns.
// Intentional fire-and-forget windows carry a //swm:ok waiver.
var XIDLife = &Analyzer{
	Name: "xidlife",
	Doc:  "flags created XIDs that never reach a destroy/rollback path or a tracked struct field",
	Run:  runXIDLife,
}

// isXIDCreator reports whether f creates a new XID. The XID is always
// f's first result.
func isXIDCreator(f *types.Func) bool {
	pkg := f.Pkg()
	if pkg == nil {
		return false
	}
	switch f.Name() {
	case "CreateWindow":
		return strings.HasSuffix(pkg.Path(), "internal/xserver") && recvTypeName(f) == "Conn"
	case "AllocXID", "allocID":
		return true
	}
	return false
}

func runXIDLife(p *Pass) {
	for _, fd := range funcDecls(p.Files) {
		parents := buildParents(fd.Body)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			f := calleeFunc(p.Info, call)
			if f == nil {
				return true
			}
			if !isXIDCreator(f) {
				return true
			}
			checkXIDUse(p, fd, call, f, parents)
			return true
		})
	}
}

func checkXIDUse(p *Pass, fd *ast.FuncDecl, call *ast.CallExpr, f *types.Func, parents map[ast.Node]ast.Node) {
	parent := parents[call]
	switch parent := parent.(type) {
	case *ast.ExprStmt:
		p.Reportf(call.Pos(), "leak",
			"result of %s is discarded: the created window's XID is lost and can never be destroyed",
			qualifiedName(f))
		return
	case *ast.AssignStmt:
		// Which LHS receives the XID? For the tuple form
		// (id, err := conn.CreateWindow) it is index 0; for the
		// single-result allocator form it is the position of the call.
		var lhs ast.Expr
		if len(parent.Rhs) == 1 && len(parent.Lhs) > 1 {
			lhs = parent.Lhs[0]
		} else {
			for i, rhs := range parent.Rhs {
				if rhs == call && i < len(parent.Lhs) {
					lhs = parent.Lhs[i]
				}
			}
		}
		if lhs == nil {
			return
		}
		switch lhs := lhs.(type) {
		case *ast.Ident:
			if lhs.Name == "_" {
				p.Reportf(call.Pos(), "leak",
					"XID result of %s is assigned to _: the created window can never be destroyed",
					qualifiedName(f))
				return
			}
			obj := p.Info.Defs[lhs]
			if obj == nil {
				obj = p.Info.Uses[lhs]
			}
			if obj == nil {
				return
			}
			if !xidEscapes(p, fd, lhs, obj, parents) {
				p.Reportf(call.Pos(), "leak",
					"XID from %s is stored in %q but never reaches a call, return, or tracked field in this function",
					qualifiedName(f), lhs.Name)
			}
		default:
			// Field, index, or other storage: tracked.
		}
	default:
		// The call is an argument, return value, or part of a larger
		// expression: the XID escapes into someone else's custody.
	}
}

// xidEscapes reports whether the variable obj, bound at defIdent, has
// at least one use that passes the XID onward.
func xidEscapes(p *Pass, fd *ast.FuncDecl, defIdent *ast.Ident, obj types.Object, parents map[ast.Node]ast.Node) bool {
	escapes := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if escapes {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || id == defIdent {
			return true
		}
		if p.Info.Uses[id] != obj && p.Info.Defs[id] != obj {
			return true
		}
		if useEscapes(id, parents) {
			escapes = true
		}
		return true
	})
	return escapes
}

// useEscapes classifies one use of the XID variable by walking up its
// enclosing expressions.
func useEscapes(id *ast.Ident, parents map[ast.Node]ast.Node) bool {
	var child ast.Node = id
	for n := parents[id]; n != nil; n = parents[n] {
		switch n := n.(type) {
		case *ast.CallExpr:
			return true // argument or receiver chain of a call
		case *ast.ReturnStmt:
			return true
		case *ast.CompositeLit, *ast.KeyValueExpr, *ast.SendStmt:
			return true
		case *ast.IndexExpr:
			return true // map/slice read or write participates in tracking
		case *ast.AssignStmt:
			// On the RHS: escapes unless every target is blank. On the
			// LHS it is just being overwritten.
			for _, rhs := range n.Rhs {
				if containsNode(rhs, child) {
					for _, lhs := range n.Lhs {
						if !isBlank(lhs) {
							return true
						}
					}
				}
			}
			return false
		case *ast.BinaryExpr, *ast.ParenExpr, *ast.UnaryExpr:
			child = n
			continue
		case ast.Stmt:
			return false // if-condition, switch tag, etc: a bare read
		}
		child = n
	}
	return false
}

func containsNode(root ast.Node, target ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if n == target {
			found = true
		}
		return !found
	})
	return found
}

// buildParents maps every node in the subtree to its parent.
func buildParents(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
