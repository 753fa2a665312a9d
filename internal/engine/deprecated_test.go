package engine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestVerifiedCacheOnlyForBench keeps the engine's verified-source cache
// for the one caller it has left: the guard keeps no verified credentials,
// and bench/layers times the cache until its rows go (ROADMAP item 1(a)),
// when verified.go goes. No non-test Go file of the module outside bench/
// calls MarkVerifiedOn, VerifiedCredMatchOn or VerifiedCredOn, or sets
// FastPathTTL in an engine.Config literal; and no Go file outside bench/,
// this package and the guard's tests (which show it ignored), tests
// included, sets the ignored guard.RemoteConfig FastPathTTL, in a literal
// or by assignment.
func TestVerifiedCacheOnlyForBench(t *testing.T) {
	deprecated := map[string]bool{"MarkVerifiedOn": true, "VerifiedCredMatchOn": true, "VerifiedCredOn": true}
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "bench" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		test := strings.HasSuffix(path, "_test.go")
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		inEngine := f.Name.Name == "engine"
		mayIgnore := inEngine || test && f.Name.Name == "guard"
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && deprecated[sel.Sel.Name] && !test {
					t.Errorf("%s calls %s: the guard keeps no verified credentials", fset.Position(n.Pos()), sel.Sel.Name)
				}
			case *ast.CompositeLit:
				sel, _ := n.Type.(*ast.SelectorExpr)
				id, _ := n.Type.(*ast.Ident)
				isConfig := sel != nil && sel.Sel.Name == "Config" && isIdent(sel.X, "engine") || inEngine && id != nil && id.Name == "Config"
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); !ok || !isIdent(kv.Key, "FastPathTTL") {
						continue
					}
					switch {
					case isConfig && !test:
						t.Errorf("%s sets engine.Config.FastPathTTL: the guard keeps no verified credentials", fset.Position(el.Pos()))
					case !isConfig && !mayIgnore:
						t.Errorf("%s sets guard.RemoteConfig.FastPathTTL, which the guard ignores", fset.Position(el.Pos()))
					}
				}
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					if sel, ok := l.(*ast.SelectorExpr); ok && sel.Sel.Name == "FastPathTTL" && !mayIgnore {
						t.Errorf("%s sets guard.RemoteConfig.FastPathTTL, which the guard ignores", fset.Position(l.Pos()))
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("parsed %d files: the walk missed the module", files)
	}
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}
