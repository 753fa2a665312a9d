package guard

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestGuardSpeaksWireOnly keeps the remote guard's packet path on one reader
// and one writer of DNS: the view and record walk read, the re-encoder and
// the splices write. No non-test file but wire.go, the cookie record's codec
// helpers that requesters and the tools use, names the Message codec —
// Unpack, UnpackQuestion, NewQuery, NewRR, Message, Pack or PackUDP — and none
// imports the resolver, whose cache held the answers the guard now keeps as
// wire.
func TestGuardSpeaksWireOnly(t *testing.T) {
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	codec := map[string]bool{"Unpack": true, "UnpackQuestion": true, "NewQuery": true, "NewRR": true, "Message": true}
	fset := token.NewFileSet()
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "dnsguard/internal/resolver" {
				t.Errorf("%s imports %s", fset.Position(imp.Pos()), p)
			}
		}
		if path == "wire.go" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, _ := sel.X.(*ast.Ident)
			if name := sel.Sel.Name; name == "Pack" || name == "PackUDP" || pkg != nil && pkg.Name == "dnswire" && codec[name] {
				t.Errorf("%s names %s: the guard reads and writes wire", fset.Position(sel.Pos()), name)
			}
			return true
		})
	}
}

// TestCountersAreShardOwned keeps each count where one shard owns it: no
// non-test file writes a counter through the guard — g.…, s.g.…, h.g.… —
// with atomic.Add* or an atomic type's Add, but the guard's control counts
// (g.ctl: key rotations, lifecycle transitions and drains), which no packet
// moves. A shard writes its own tally (s.tally, h.tally). A planted write
// through the guard's old stats field is the check's own control.
func TestCountersAreShardOwned(t *testing.T) {
	throughGuard := func(f *ast.File) (bad []ast.Expr) {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var target ast.Expr
			switch fn := call.Fun.(type) {
			case *ast.SelectorExpr:
				if pkg, _ := fn.X.(*ast.Ident); pkg != nil && pkg.Name == "atomic" && strings.HasPrefix(fn.Sel.Name, "Add") && len(call.Args) > 0 {
					target = call.Args[0]
					if u, ok := target.(*ast.UnaryExpr); ok && u.Op == token.AND {
						target = u.X
					}
				} else if fn.Sel.Name == "Add" {
					target = fn.X
				}
			}
			if s := types.ExprString(target); target != nil && (strings.HasPrefix(s, "g.") || strings.Contains(s, ".g.")) && !strings.HasPrefix(s, "g.ctl.") {
				bad = append(bad, target)
			}
			return true
		})
		return bad
	}
	fset := token.NewFileSet()
	planted, err := parser.ParseFile(fset, "planted.go", "package guard\nfunc f(g *Remote) { atomic.AddUint64(&g.Stats.Malformed, 1) }\n", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(throughGuard(planted)) != 1 {
		t.Fatal("the check misses a planted write through the guard")
	}
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range throughGuard(f) {
			t.Errorf("%s writes %s through the guard: count it in the shard's tally", fset.Position(e.Pos()), types.ExprString(e))
		}
	}
}

// TestGuardChargesNoCPU keeps the simulator's cost model out of every
// package a daemon links: the simulator prices work at a host's sockets
// (workload's meters), and no product package knows a price. No non-test
// file of an internal package in the daemons' dependencies imports cpumodel,
// names WorkPreempt, declares a CPUWorker or any interface with a
// Work(time.Duration) method, or declares a struct field named CPU or Cost*.
func TestGuardChargesNoCPU(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool on PATH")
	}
	out, err := exec.Command("go", "list", "-deps", "-f", "{{.ImportPath}}{{range .GoFiles}} {{$.Dir}}/{{.}}{{end}}",
		"dnsguard/cmd/dnsguardd", "dnsguard/cmd/ansd", "dnsguard/cmd/lrsd").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	fset := token.NewFileSet()
	seen := 0
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		files := strings.Fields(line)
		if !strings.HasPrefix(files[0], "dnsguard/internal/") {
			continue
		}
		seen++
		for _, path := range files[1:] {
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "dnsguard/internal/cpumodel" {
					t.Errorf("%s imports %s", fset.Position(imp.Pos()), p)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if n.Name == "WorkPreempt" {
						t.Errorf("%s names %s", fset.Position(n.Pos()), n.Name)
					}
				case *ast.TypeSpec:
					if n.Name.Name == "CPUWorker" {
						t.Errorf("%s declares %s", fset.Position(n.Pos()), n.Name.Name)
					}
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						if ft, ok := m.Type.(*ast.FuncType); ok && len(m.Names) == 1 && m.Names[0].Name == "Work" &&
							len(ft.Params.List) == 1 && types.ExprString(ft.Params.List[0].Type) == "time.Duration" {
							t.Errorf("%s declares a Work(time.Duration) hook", fset.Position(m.Pos()))
						}
					}
				case *ast.StructType:
					for _, fld := range n.Fields.List {
						for _, id := range fld.Names {
							if id.Name == "CPU" || strings.HasPrefix(id.Name, "Cost") {
								t.Errorf("%s declares a field %s", fset.Position(id.Pos()), id.Name)
							}
						}
					}
				}
				return true
			})
		}
	}
	if seen == 0 {
		t.Error("go list named no internal package of the daemons")
	}
}
