package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoMutableGlobals keeps drevald's state in Server values: the only
// package-level variables allowed in the program files are metric
// handles on the process-wide registry (*obs.Counter, *obs.Gauge,
// *obs.Histogram and the biasMetrics family) and error sentinels.
// Anything else — a knob, a cache, a swappable dependency — belongs in
// Config or Server.
func TestNoMutableGlobals(t *testing.T) {
	t.Parallel()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok || gen.Tok != token.VAR {
				continue
			}
			for _, spec := range gen.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, id := range vs.Names {
					var value ast.Expr
					if i < len(vs.Values) {
						value = vs.Values[i]
					}
					if !allowedGlobal(id.Name, vs.Type, value) {
						t.Errorf("%s: package-level var %s is mutable state; move it into Config or Server",
							fset.Position(id.Pos()), id.Name)
					}
				}
			}
		}
	}
}

// allowedGlobal reports whether a package-level var is a metric handle
// or an error sentinel, judged by its declared type or initializer.
func allowedGlobal(name string, typ, value ast.Expr) bool {
	switch exprString(typ) {
	case "*obs.Counter", "*obs.Gauge", "*obs.Histogram", "biasMetrics":
		return true
	}
	call, ok := value.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch exprString(call.Fun) {
	case "obs.Default.Counter", "obs.Default.Gauge", "obs.Default.Histogram", "registerBiasMetrics":
		return true
	case "errors.New":
		return strings.HasPrefix(name, "err")
	}
	return false
}

// exprString renders the identifiers, selectors and pointer stars that
// make up a type or function name ("" for anything else).
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	}
	return ""
}
