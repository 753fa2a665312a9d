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
// for the one caller it has left: the guard keeps its verified sources in
// Rate-Limiter2's records, and bench/layers times the cache until it moves
// to them (ROADMAP item 1(a)), when verified.go goes. No non-test Go file
// of the module outside bench/ calls MarkVerifiedOn, VerifiedCredMatchOn or
// VerifiedCredOn, or sets FastPathTTL in an engine.Config literal.
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		inEngine := f.Name.Name == "engine"
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && deprecated[sel.Sel.Name] {
					t.Errorf("%s calls %s: the guard's verified sources are Rate-Limiter2's records", fset.Position(n.Pos()), sel.Sel.Name)
				}
			case *ast.CompositeLit:
				sel, _ := n.Type.(*ast.SelectorExpr)
				id, _ := n.Type.(*ast.Ident)
				isConfig := sel != nil && sel.Sel.Name == "Config" && isIdent(sel.X, "engine") || inEngine && id != nil && id.Name == "Config"
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok && isConfig && isIdent(kv.Key, "FastPathTTL") {
						t.Errorf("%s sets engine.Config.FastPathTTL: the guard's verified sources are Rate-Limiter2's records", fset.Position(kv.Pos()))
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
