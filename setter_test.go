package dnsguard

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// setterAllowlist names the settings that only tests or the root benchmarks
// set, each with its reason.
var setterAllowlist = map[string]string{
	"experiments.Figure6Options.Clients":  "tests shrink the requester count for run time",
	"experiments.TableIIIOptions.Clients": "tests shrink the requester count for run time",
	"tcpsim.Config.OnSegment":             "a segment-count hook for the TCP tests",
}

// TestEverySettingHasASetter keeps the configs honest: every exported field
// of a struct named *Config or *Options under internal/ is written by some
// non-test code in cmd/, internal/ or bench/ — a composite-literal key, an
// assignment, an increment or an address taken. A defaulting write does not
// count: one through the receiver of a config's method, or one through a
// config-typed parameter under an if or case that tests the field it writes.
// Either writes the very default a constant would hold. A setting nobody sets is a configuration nothing runs; it
// becomes a constant. A field its package refuses to run without, and never
// defaults, is a required input rather than a setting.
func TestEverySettingHasASetter(t *testing.T) {
	pkgs := checkModule(t)

	settings := make(map[string]bool) // audited field → has a setter
	for _, c := range pkgs {
		if !strings.HasPrefix(c.pkg.Path(), "dnsguard/internal/") {
			continue
		}
		scope := c.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if k, ok := settingKey(tn.Type(), st.Field(i).Name()); ok && st.Field(i).Exported() {
					settings[k] = false
				}
			}
		}
	}
	if len(settings) == 0 {
		t.Fatal("found no config fields under internal/")
	}

	defaulted := make(map[string]bool)
	refused := make(map[string]bool)
	for _, c := range pkgs {
		// fields lists the settings x selects, innermost first:
		// cfg.Supervisor.Enabled is Enabled then Supervisor. root is the
		// variable the selection starts from.
		fields := func(x ast.Expr) (keys []string, root types.Object) {
			for {
				switch e := x.(type) {
				case *ast.ParenExpr:
					x = e.X
				case *ast.StarExpr:
					x = e.X
				case *ast.IndexExpr:
					x = e.X
				case *ast.SelectorExpr:
					sel := c.info.Selections[e]
					if sel == nil || sel.Kind() != types.FieldVal {
						return keys, nil
					}
					owner, idx := sel.Recv(), sel.Index()
					for _, i := range idx[:len(idx)-1] {
						owner = fieldOf(owner, i).Type()
					}
					if k, ok := settingKey(owner, e.Sel.Name); ok {
						keys = append(keys, k)
					}
					x = e.X
				case *ast.Ident:
					return keys, c.info.Uses[e]
				default:
					return keys, nil
				}
			}
		}
		// tested collects the settings an expression reads.
		tested := func(xs ...ast.Expr) map[string]bool {
			out := make(map[string]bool)
			for _, x := range xs {
				ast.Inspect(x, func(n ast.Node) bool {
					if e, ok := n.(ast.Expr); ok {
						keys, _ := fields(e)
						for _, k := range keys {
							out[k] = true
						}
					}
					return true
				})
			}
			return out
		}
		// guarded reports whether an if or case around the innermost node of
		// stack tests setting k.
		guarded := func(stack []ast.Node, k string) bool {
			for _, n := range stack {
				switch n := n.(type) {
				case *ast.IfStmt:
					if tested(n.Cond)[k] {
						return true
					}
				case *ast.CaseClause:
					if tested(n.List...)[k] {
						return true
					}
				}
			}
			return false
		}
		for _, f := range c.files {
			var stack []ast.Node
			var receiver types.Object             // of the enclosing method, if a config
			params := make(map[types.Object]bool) // of a config type
			written := func(x ast.Expr) {
				keys, root := fields(x)
				if len(keys) == 0 {
					return
				}
				if root != nil && root == receiver {
					for _, k := range keys {
						defaulted[k] = true
					}
					return
				}
				if params[root] && guarded(stack, keys[0]) {
					defaulted[keys[0]] = true
					keys = keys[1:]
				}
				for _, k := range keys {
					settings[k] = true
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				switch n := n.(type) {
				case *ast.FuncDecl:
					receiver = nil
					if n.Recv != nil && len(n.Recv.List[0].Names) > 0 {
						if obj := c.info.Defs[n.Recv.List[0].Names[0]]; obj != nil && isConfig(obj.Type()) {
							receiver = obj
						}
					}
					for _, fld := range n.Type.Params.List {
						for _, id := range fld.Names {
							if obj := c.info.Defs[id]; obj != nil && isConfig(obj.Type()) {
								params[obj] = true
							}
						}
					}
				case *ast.CompositeLit:
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								if k, ok := settingKey(c.info.Types[n].Type, id.Name); ok {
									settings[k] = true
								}
							}
						}
					}
				case *ast.AssignStmt:
					for _, x := range n.Lhs {
						written(x)
					}
				case *ast.IncDecStmt:
					written(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						written(n.X)
					}
				case *ast.IfStmt, *ast.CaseClause:
					// A branch that returns an error refuses what its
					// condition tests.
					var conds []ast.Expr
					var body []ast.Stmt
					if s, ok := n.(*ast.IfStmt); ok {
						conds, body = []ast.Expr{s.Cond}, s.Body.List
					} else {
						s := n.(*ast.CaseClause)
						conds, body = s.List, s.Body
					}
					for _, s := range body {
						if r, ok := s.(*ast.ReturnStmt); ok && len(r.Results) > 0 {
							tv := c.info.Types[r.Results[len(r.Results)-1]]
							if !tv.IsNil() && types.Implements(tv.Type, errorType) {
								for k := range tested(conds...) {
									refused[k] = true
								}
							}
						}
					}
				}
				return true
			})
		}
	}

	for k, reason := range setterAllowlist {
		if set, ok := settings[k]; !ok || set {
			t.Errorf("allowlisted %s (%s) is no longer an unset setting: drop it from the allowlist", k, reason)
		}
	}
	var unset []string
	for k, set := range settings {
		_, allowed := setterAllowlist[k]
		required := refused[k] && !defaulted[k]
		if !set && !allowed && !required {
			unset = append(unset, k)
		}
	}
	sort.Strings(unset)
	for _, k := range unset {
		t.Errorf("%s is set by nothing outside the tests and its own defaulting: make it a constant, or drop it", k)
	}
}

// checkedPackage is one type-checked package of cmd/, internal/ or bench/.
type checkedPackage struct {
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
}

// checkModule type-checks the non-test files of every package under cmd/,
// internal/ and bench/ that imports the facade or internal/: a package that
// imports neither cannot name a config, and skipping it keeps the rig's
// net/http out of the check.
func checkModule(t *testing.T) []checkedPackage {
	t.Helper()
	top, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	var pkgs []checkedPackage
	// The source importer finds an import path with `go list` run in
	// build.Default.Dir, and bench/ is a module of its own.
	defer func(dir string) { build.Default.Dir = dir }(build.Default.Dir)
	for _, root := range []string{"cmd", "internal", "bench"} {
		build.Default.Dir = filepath.Join(top, root)
		err := filepath.WalkDir(build.Default.Dir, func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			bp, err := build.ImportDir(dir, 0)
			if _, none := err.(*build.NoGoError); none {
				return nil
			} else if err != nil {
				return err
			}
			mine := false
			for _, p := range bp.Imports {
				mine = mine || p == "dnsguard" || strings.HasPrefix(p, "dnsguard/internal/")
			}
			if !mine {
				return nil
			}
			c := checkedPackage{info: &types.Info{
				Types:      make(map[ast.Expr]types.TypeAndValue),
				Defs:       make(map[*ast.Ident]types.Object),
				Uses:       make(map[*ast.Ident]types.Object),
				Selections: make(map[*ast.SelectorExpr]*types.Selection),
			}}
			for _, name := range bp.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
				if err != nil {
					return err
				}
				c.files = append(c.files, f)
			}
			rel, err := filepath.Rel(top, dir)
			if err != nil {
				return err
			}
			conf := types.Config{Importer: imp}
			if c.pkg, err = conf.Check("dnsguard/"+filepath.ToSlash(rel), fset, c.files, c.info); err != nil {
				return err
			}
			pkgs = append(pkgs, c)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return pkgs
}

// settingKey names field of owner as pkg.Type.Field, the package by its last
// path element; ok is false unless owner, or what it points to, is a struct
// named *Config or *Options under internal/.
func settingKey(owner types.Type, field string) (key string, ok bool) {
	if p, isPtr := owner.(*types.Pointer); isPtr {
		owner = p.Elem()
	}
	named, isNamed := types.Unalias(owner).(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil {
		return "", false
	}
	path, name := named.Obj().Pkg().Path(), named.Obj().Name()
	if !strings.HasPrefix(path, "dnsguard/internal/") ||
		!(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
		return "", false
	}
	if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
		return "", false
	}
	return filepath.Base(path) + "." + name + "." + field, true
}

var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isConfig(typ types.Type) bool {
	_, ok := settingKey(typ, "")
	return ok
}

// fieldOf returns field i of the struct typ is, or points to.
func fieldOf(typ types.Type, i int) *types.Var {
	if p, ok := typ.Underlying().(*types.Pointer); ok {
		typ = p.Elem()
	}
	return typ.Underlying().(*types.Struct).Field(i)
}
