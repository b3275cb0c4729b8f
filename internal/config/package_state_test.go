package config

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// readOnlyTables are the package-level variables, by package and name,
// that are built once and never written: lookup tables, a checksum
// table, the simulator's figure combos and the CLI's command map.
var readOnlyTables = map[string]bool{
	"config.defaults":      true,
	"kv.runMagic":          true,
	"kv.bytesComparatorPC": true,
	"workload.teraValue":   true,
	"workload.castagnoli":  true,
	"mapred.TeraInput":     true,
	"mapred.kindSpecs":     true,
	"sim.c1GigE":           true,
	"sim.c10GigE":          true,
	"sim.cIPoIB":           true,
	"sim.cHadoopA":         true,
	"sim.cOSUIB":           true,
	"main.commands":        true,
}

// TestNoPackageState keeps the process free of mutable state: what a
// layer keeps lives on the node it serves (its device, tracker or
// cluster), so no test's result depends on the tests run before it. It
// fails on any package-level var in the non-test Go files under
// internal/, pkg/ and cmd/ other than an interface assertion (var _),
// a sentinel error made by errors.New, or one of readOnlyTables.
func TestNoPackageState(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	files := 0
	for _, dir := range []string{"internal", "pkg", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files++
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs := spec.(*ast.ValueSpec)
					for i, name := range vs.Names {
						if name.Name == "_" || readOnlyTables[f.Name.Name+"."+name.Name] ||
							(i < len(vs.Values) && isErrorsNew(vs.Values[i])) {
							continue
						}
						t.Errorf("%s: package-level var %s.%s: keep mutable state on the node it serves",
							fset.Position(name.Pos()), f.Name.Name, name.Name)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if files == 0 {
		t.Fatal("no Go files found under internal/, pkg/ or cmd/")
	}
}

// isErrorsNew reports whether e is a call errors.New(...).
func isErrorsNew(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "errors" && sel.Sel.Name == "New"
}
