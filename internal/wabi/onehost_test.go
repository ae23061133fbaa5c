package wabi

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestPoolIsTheOnlyHost keeps one way to host a plugin: outside this
// package, every non-test file under internal/ and cmd/ checks instances out
// of a Pool, which never hands a trapped instance to the next caller. The
// one exception is RunFig5c, which measures the memory growth of a single
// instance across calls.
func TestPoolIsTheOnlyHost(t *testing.T) {
	allowed := map[string]bool{"RunFig5c": true}
	checked := 0
	for _, root := range []string{"..", filepath.Join("..", "..", "cmd")} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path == filepath.Join("..", "wabi") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				return err
			}
			checked++
			name := ""
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "waran/internal/wabi" {
					name = "wabi"
					if imp.Name != nil {
						name = imp.Name.Name
					}
				}
			}
			if name == "" {
				return nil
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if ok && allowed[fn.Name.Name] {
					continue
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "NewPlugin" {
						return true
					}
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == name {
						t.Errorf("%s calls %s.NewPlugin: host plugins through a %s.Pool", path, name, name)
					}
					return true
				})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if checked == 0 {
		t.Fatal("no source files found")
	}
}
