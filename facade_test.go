package dnsguard

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestFacadeReferenced keeps the facade audited: every exported top-level
// func, const and var of package dnsguard is referenced from cmd/, examples/
// or a root _test.go. A name nothing uses is a name nothing tests; it goes, or
// it gains a use. Type aliases are exempt — they name the types the funcs
// take and return, and a config alias is used by its literal's fields.
func TestFacadeReferenced(t *testing.T) {
	fset := token.NewFileSet()
	unused := make(map[string]bool)
	var tests []*ast.File
	roots, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range roots {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(name, "_test.go") {
			tests = append(tests, f)
			continue
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					unused[d.Name.Name] = true
				}
			case *ast.GenDecl:
				if d.Tok != token.CONST && d.Tok != token.VAR {
					continue
				}
				for _, s := range d.Specs {
					for _, n := range s.(*ast.ValueSpec).Names {
						if n.IsExported() {
							unused[n.Name] = true
						}
					}
				}
			}
		}
	}
	if len(unused) == 0 {
		t.Fatal("found no exported declarations in the package")
	}

	// Root tests are in the package: a bare identifier is a reference, the
	// selected half of pkg.Name is another package's name.
	for _, f := range tests {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				ast.Inspect(n.X, func(x ast.Node) bool {
					if id, ok := x.(*ast.Ident); ok {
						delete(unused, id.Name)
					}
					return true
				})
				return false
			case *ast.Ident:
				delete(unused, n.Name)
			}
			return true
		})
	}
	// cmd/ and examples/ import the package: dnsguard.Name is a reference.
	for _, dir := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			local := ""
			for _, im := range f.Imports {
				if p, _ := strconv.Unquote(im.Path.Value); p == "dnsguard" {
					local = "dnsguard"
					if im.Name != nil {
						local = im.Name.Name
					}
				}
			}
			if local == "" {
				return nil
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == local {
						delete(unused, sel.Sel.Name)
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	names := make([]string, 0, len(unused))
	for n := range unused {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t.Errorf("dnsguard.%s is referenced by nothing under cmd/, examples/ or the root tests", n)
	}
}
