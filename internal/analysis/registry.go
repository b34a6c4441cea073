package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
)

// Registry is the repo's declarative vocabulary, extracted from source
// rather than duplicated by hand: the window-manager function table
// from internal/core/functions.go and the binding modifier table from
// internal/bindings/bindings.go. The funcref analyzer cross-checks
// every policy string literal against it, so the two can never drift
// apart — adding an f.* function to the table is all it takes for
// swmvet to accept it.
type Registry struct {
	// Functions holds valid window-manager function names ("f.raise"),
	// lowercased, exactly as registered in core's function table.
	Functions map[string]bool
	// Modifiers holds valid binding modifier names ("meta", "ctrl", ...)
	// plus "any", lowercased.
	Modifiers map[string]bool
}

// Registry returns the module's extracted registry, loading it on first
// use. It returns nil (and the load error) when the module does not
// carry the swm tables — funcref then has nothing to check against.
func (c *Context) Registry() (*Registry, error) {
	c.registryOnce.Do(func() {
		c.registry, c.registryErr = loadRegistry(c.ModuleDir)
	})
	return c.registry, c.registryErr
}

func loadRegistry(moduleDir string) (*Registry, error) {
	r := &Registry{
		Functions: make(map[string]bool),
		Modifiers: map[string]bool{"any": true},
	}
	fset := token.NewFileSet()

	funcsFile := filepath.Join(moduleDir, "internal", "core", "functions.go")
	f, err := parser.ParseFile(fset, funcsFile, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, fmt.Errorf("analysis: loading f.* registry: %w", err)
	}
	// Every `"f.name": impl` key of a map composite literal in
	// functions.go is a registered function. The only such literal is
	// the package-level funcs table.
	ast.Inspect(f, func(n ast.Node) bool {
		kv, ok := n.(*ast.KeyValueExpr)
		if !ok {
			return true
		}
		if lit, ok := kv.Key.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil && strings.HasPrefix(s, "f.") {
				r.Functions[strings.ToLower(s)] = true
			}
		}
		return true
	})
	if len(r.Functions) == 0 {
		return nil, fmt.Errorf("analysis: no f.* entries found in %s", funcsFile)
	}

	bindingsFile := filepath.Join(moduleDir, "internal", "bindings", "bindings.go")
	bf, err := parser.ParseFile(fset, bindingsFile, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, fmt.Errorf("analysis: loading modifier registry: %w", err)
	}
	ast.Inspect(bf, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		for i, name := range vs.Names {
			if name.Name != "modifierNames" || i >= len(vs.Values) {
				continue
			}
			lit, ok := vs.Values[i].(*ast.CompositeLit)
			if !ok {
				continue
			}
			for _, elt := range lit.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.BasicLit); ok && key.Kind == token.STRING {
					if s, err := strconv.Unquote(key.Value); err == nil {
						r.Modifiers[strings.ToLower(s)] = true
					}
				}
			}
		}
		return true
	})
	if len(r.Modifiers) <= 1 {
		return nil, fmt.Errorf("analysis: no modifier entries found in %s", bindingsFile)
	}
	return r, nil
}
