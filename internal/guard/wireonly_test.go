package guard

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
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

// TestGuardChargesNoCPU keeps the simulator's cost model out of the guard:
// the guard counts its work (Work) and what prices it sits around its
// sockets. No non-test file imports cpumodel or declares or calls a CPU hook
// — a CPUWorker, a WorkPreempt, a charge — and RemoteConfig has no CPU or
// Costs field.
func TestGuardChargesNoCPU(t *testing.T) {
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
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
			if p, _ := strconv.Unquote(imp.Path.Value); p == "dnsguard/internal/cpumodel" {
				t.Errorf("%s imports %s", fset.Position(imp.Pos()), p)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				switch id.Name {
				case "CPUWorker", "WorkPreempt", "charge", "cpumodel":
					t.Errorf("%s names %s: the guard counts its work and charges none", fset.Position(id.Pos()), id.Name)
				}
			}
			return true
		})
	}
	for _, name := range []string{"CPU", "Costs"} {
		if _, ok := reflect.TypeFor[RemoteConfig]().FieldByName(name); ok {
			t.Errorf("RemoteConfig has a %s field", name)
		}
	}
}
