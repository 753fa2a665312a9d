package dnsguard

import (
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update", false, "rewrite testdata/api.txt with the current public API")

// TestAPI freezes the exported surface of package dnsguard. It type-checks
// the package, renders every exported symbol — including the exported
// methods and struct fields of the internal types the facade aliases — and
// compares the result against testdata/api.txt. Any change to the public
// API shows up as a diff here; regenerate the golden deliberately with
//
//	go test -run TestAPI -update
func TestAPI(t *testing.T) {
	got := renderAPI(t)
	golden := filepath.Join("testdata", "api.txt")

	if *updateAPI {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", golden)
		return
	}

	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden API file: %v (run `go test -run TestAPI -update` to create it)", err)
	}
	if got == string(want) {
		return
	}
	// The lines are compared as multisets, not sets: a method line that
	// another type already renders, like "    method Close()", still counts.
	count := make(map[string]int)
	for _, l := range strings.Split(string(want), "\n") {
		count[l]++
	}
	for _, l := range strings.Split(got, "\n") {
		count[l]--
	}
	var removed, added []string
	for _, l := range strings.Split(string(want), "\n") {
		if l != "" && count[l] > 0 {
			removed = append(removed, "-"+l)
			count[l]--
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if l != "" && count[l] < 0 {
			added = append(added, "+"+l)
			count[l]++
		}
	}
	if len(removed) > 0 {
		// Removals are breaking: additions merely grow the surface, but a
		// removed symbol strands downstream callers. The bar is higher —
		// keep the old symbol as a deprecated wrapper over the replacement
		// for a release where possible (as the cookie constructors were
		// before OpenKeyringWith replaced them), and when genuine removal is
		// intended, name the replacement next to each removed line below in
		// the commit that regenerates the golden.
		t.Errorf("public API symbols REMOVED — this breaks downstream code.\n"+
			"Prefer a deprecated wrapper over removal; if removal is intentional, add a\n"+
			"migration note (removed symbol -> replacement) to the commit regenerating\n"+
			"testdata/api.txt via `go test -run TestAPI -update`:\n%s",
			strings.Join(removed, "\n"))
	}
	if len(added) > 0 {
		t.Errorf("public API symbols added; if intentional, run `go test -run TestAPI -update` and commit testdata/api.txt:\n%s",
			strings.Join(added, "\n"))
	}
}

// renderAPI type-checks the dnsguard package from source and returns its
// exported surface as deterministic text: one line per package-scope symbol
// (sorted by name), with the exported fields and methods of each named type
// indented beneath it. Internal types are printed with their full import
// path so that retargeting an alias is a visible API change.
func renderAPI(t *testing.T) string {
	t.Helper()

	fset := token.NewFileSet()
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatalf("parsing %s: %v", name, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatal("no package source files found")
	}

	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("dnsguard", fset, files, nil)
	if err != nil {
		t.Fatalf("type-checking package: %v", err)
	}

	qual := types.RelativeTo(pkg)
	scope := pkg.Scope()
	names := scope.Names()
	sort.Strings(names)

	var b strings.Builder
	for _, name := range names {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		fmt.Fprintln(&b, types.ObjectString(obj, qual))

		tn, ok := obj.(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := types.Unalias(tn.Type()).(*types.Named)
		if !ok {
			continue
		}
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() {
					continue
				}
				fmt.Fprintf(&b, "    field %s %s\n", f.Name(), types.TypeString(f.Type(), qual))
			}
		}
		mset := types.NewMethodSet(types.NewPointer(named))
		if mset.Len() == 0 {
			mset = types.NewMethodSet(named)
		}
		for i := 0; i < mset.Len(); i++ {
			m := mset.At(i).Obj()
			if !m.Exported() {
				continue
			}
			fmt.Fprintf(&b, "    method %s%s\n", m.Name(),
				strings.TrimPrefix(types.TypeString(mset.At(i).Type(), qual), "func"))
		}
	}
	return b.String()
}
