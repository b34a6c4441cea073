package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// ConnCheck makes the graceful-degradation sweep permanent: no error
// returned by an X request method — on xserver.Conn or the icccm
// helpers built on it — may be silently discarded. Errors must be handled, routed into a check helper
// (wm.check and friends take the error as an argument, which this
// analyzer never flags), or waived with //swm:ok and a reason.
//
// Flagged forms:
//
//	conn.MapWindow(w)            // bare call, error dropped
//	_ = conn.MapWindow(w)        // explicit discard
//	p, ok, _ := conn.GetProperty // blank in the error position
//	defer conn.DestroyWindow(w)  // deferred call, error dropped
//	go conn.MapWindow(w)         // goroutine call, error dropped
var ConnCheck = &Analyzer{
	Name: "conncheck",
	Doc:  "flags discarded errors from xserver.Conn and icccm request methods",
	Run:  runConnCheck,
}

// isRequestAPI reports whether f belongs to the X-request error surface
// conncheck polices, and how many results it returns.
func isRequestAPI(f *types.Func) (nresults int, ok bool) {
	n, isErr := lastResultIsError(f)
	if !isErr {
		return 0, false
	}
	pkg := f.Pkg()
	if pkg == nil {
		return 0, false
	}
	switch recv := recvTypeName(f); {
	case recv != "":
		if !strings.HasSuffix(pkg.Path(), "internal/xserver") {
			return 0, false
		}
		if recv != "Conn" {
			return 0, false
		}
	default:
		if !strings.HasSuffix(pkg.Path(), "internal/icccm") {
			return 0, false
		}
	}
	return n, true
}

func runConnCheck(p *Pass) {
	flag := func(call *ast.CallExpr) {
		f := calleeFunc(p.Info, call)
		if f == nil {
			return
		}
		if _, ok := isRequestAPI(f); !ok {
			return
		}
		p.Reportf(call.Pos(), "discard",
			"discarded error from %s; handle it, route it through a check helper, or waive with //swm:ok <reason>",
			qualifiedName(f))
	}
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					flag(call)
				}
			case *ast.DeferStmt:
				flag(n.Call)
			case *ast.GoStmt:
				flag(n.Call)
			case *ast.AssignStmt:
				connCheckAssign(p, n, flag)
			}
			return true
		})
	}
}

// connCheckAssign flags assignments that put the blank identifier in a
// request method's error result position.
func connCheckAssign(p *Pass, as *ast.AssignStmt, flag func(*ast.CallExpr)) {
	// Tuple form: a, b, err := call()
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		f := calleeFunc(p.Info, call)
		if f == nil {
			return
		}
		n, ok := isRequestAPI(f)
		if !ok || len(as.Lhs) != n {
			return
		}
		if isBlank(as.Lhs[n-1]) {
			flag(call)
		}
		return
	}
	// Parallel form: _ = call(), possibly among others.
	if len(as.Lhs) == len(as.Rhs) {
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !isBlank(as.Lhs[i]) {
				continue
			}
			f := calleeFunc(p.Info, call)
			if f == nil {
				continue
			}
			if n, ok := isRequestAPI(f); ok && n == 1 {
				flag(call)
			}
		}
	}
}

// qualifiedName renders a function for diagnostics: (*xserver.Conn).MapWindow
// or icccm.SetState.
func qualifiedName(f *types.Func) string {
	pkgName := ""
	if f.Pkg() != nil {
		pkgName = f.Pkg().Name()
	}
	if recv := recvTypeName(f); recv != "" {
		return fmt.Sprintf("(*%s.%s).%s", pkgName, recv, f.Name())
	}
	return fmt.Sprintf("%s.%s", pkgName, f.Name())
}
