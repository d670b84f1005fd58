package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// loadModule type-checks the whole module once for the tests that walk it.
var loadModule = sync.OnceValues(func() ([]*Package, error) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		return nil, err
	}
	return Load(root, "./...")
})

const modulePath = "github.com/bdbench/bdbench"

// callerless lists the names under internal/ — package-level ones as
// "pkg.Name", methods as "pkg.Type.Method" — that no non-test file refers
// to and that stay anyway, each with the reason.
var callerless = map[string]string{
	"internal/raceflag.Enabled":             "read by tests only: alloc assertions skip under -race",
	"internal/lint.CheckFiles":              "the analysistest harness loads testdata packages through it",
	"internal/datagen/formats.ReadEdgeList": "test oracle for WriteEdgeList: proves the writers' output parses back",
	"internal/datagen/formats.ReadTable":    "test oracle for WriteTable: proves CSV, TSV and JSONL parse back to the same cells",
	"internal/stats.Histogram.Total":        "read by the binning tests: the count that includes out-of-range observations",
}

// ifaceMethods are the method names the standard library calls through an
// interface, so that a type's implementation has no selection of its own.
// Methods of interfaces declared in the module are added to it by the walk.
var ifaceMethods = []string{
	"String", "Error", "MarshalJSON", "UnmarshalJSON", "Len", "Less", "Swap",
	"Write", "Read", "ServeHTTP", "Close", "Unwrap",
}

// TestInternalNamesHaveCallers holds the "no names nobody calls" rule: a
// package-level func, type, var or const declared under internal/ must be
// referred to by some non-test file of the module — cmd/, examples/,
// benchmark/ and the public facades included. A name that only its own
// tests exercise is dead weight with a green test beside it.
//
// Two refinements keep a type from vouching for itself. A reference to T
// from inside T's own method set — a receiver, a body — does not count as
// a use of T. And a method needs a non-test selection of its own, outside
// its own body, unless its type is public API (reachable from the exported
// scope of the root package, datagen/... or stacks/... through exported
// fields and signatures: callers outside the module may select it) or its
// name is a method of an interface (declared in the module, or listed in
// ifaceMethods: the call goes through the interface).
func TestInternalNamesHaveCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	pkgs, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	key := func(obj types.Object) string {
		return strings.TrimPrefix(obj.Pkg().Path(), modulePath+"/") + "." + obj.Name()
	}
	isTest := func(fset *token.FileSet, pos token.Pos) bool {
		return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
	}
	packageLevel := func(obj types.Object) bool {
		return obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
	}
	// methodKey is "pkg.Type" and "pkg.Type.Method" for a method of a
	// package-level named type, "" for anything else (interface methods,
	// plain functions).
	methodKey := func(obj types.Object) (typ, method string) {
		fn, ok := obj.(*types.Func)
		if !ok {
			return "", ""
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return "", ""
		}
		named := receiverNamed(recv.Type())
		if named == nil || !packageLevel(named.Obj()) || types.IsInterface(named) {
			return "", ""
		}
		typ = key(named.Obj())
		return typ, typ + "." + fn.Name()
	}

	public := publicTypes(pkgs, key)
	viaInterface := map[string]bool{}
	for _, name := range ifaceMethods {
		viaInterface[name] = true
	}
	used := map[string]bool{}
	declared := map[string]token.Position{}
	type methodDecl struct{ typ, name string }
	methods := map[string]methodDecl{} // by method key
	for _, p := range pkgs {
		// within maps every identifier inside a method declaration to
		// that method's (type, method) keys.
		type owner struct{ typ, method string }
		within := map[*ast.Ident]owner{}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil {
					continue
				}
				typ, method := methodKey(p.Info.Defs[fd.Name])
				if typ == "" {
					continue
				}
				ast.Inspect(fd, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						within[id] = owner{typ, method}
					}
					return true
				})
			}
		}

		for id, obj := range p.Info.Uses {
			if !packageLevel(obj) || isTest(p.Fset, id.Pos()) {
				continue
			}
			if _, isType := obj.(*types.TypeName); isType && within[id].typ == key(obj) {
				continue
			}
			used[key(obj)] = true
		}
		for expr, tv := range p.Info.Types {
			if _, ok := expr.(*ast.InterfaceType); !ok || isTest(p.Fset, expr.Pos()) {
				continue
			}
			if it, ok := tv.Type.(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					viaInterface[it.Method(i).Name()] = true
				}
			}
		}
		for sel, s := range p.Info.Selections {
			if isTest(p.Fset, sel.Pos()) {
				continue
			}
			in := within[sel.Sel]
			// A type's fields and methods reach it without naming it: T
			// is alive when one is selected outside tests and outside T.
			if named := receiverNamed(s.Recv()); named != nil && packageLevel(named.Obj()) && in.typ != key(named.Obj()) {
				used[key(named.Obj())] = true
			}
			if _, method := methodKey(s.Obj()); method != "" && method != in.method {
				used[method] = true
			}
		}

		if !strings.Contains(p.Path, "/internal/") || strings.Contains(p.Path, "/internal/tools/") {
			continue
		}
		for id, obj := range p.Info.Defs {
			if obj == nil || isTest(p.Fset, id.Pos()) {
				continue
			}
			if typ, method := methodKey(obj); method != "" {
				declared[method] = p.Fset.Position(id.Pos())
				methods[method] = methodDecl{typ, id.Name}
				continue
			}
			if !packageLevel(obj) {
				continue
			}
			switch id.Name {
			case "_", "init", "main":
				continue
			}
			declared[key(obj)] = p.Fset.Position(id.Pos())
		}
	}

	var dead []string
	for name, pos := range declared {
		if used[name] {
			continue
		}
		if _, ok := callerless[name]; ok {
			continue
		}
		if m, isMethod := methods[name]; isMethod && (public[m.typ] || viaInterface[m.name]) {
			continue
		}
		dead = append(dead, pos.String()+": "+name)
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no non-test caller in the module; delete it (and the tests that exist only for it) or add it to callerless with a reason", d)
	}
	for name, reason := range callerless {
		if reason == "" {
			t.Errorf("callerless entry %q gives no reason", name)
		}
		if _, ok := declared[name]; !ok {
			t.Errorf("callerless entry %q names nothing declared under internal/", name)
		} else if used[name] {
			t.Errorf("callerless entry %q has a non-test caller now; drop the entry", name)
		}
	}
}

// publicTypes returns the keys of the module's named types that code
// outside the module can hold: every type reachable from an exported name
// of the root package, datagen/... or stacks/... through exported fields,
// exported methods' signatures and element types, to a fixpoint.
func publicTypes(pkgs []*Package, key func(types.Object) string) map[string]bool {
	public := map[string]bool{}
	var walk func(t types.Type)
	tuple := func(tu *types.Tuple) {
		for i := 0; i < tu.Len(); i++ {
			walk(tu.At(i).Type())
		}
	}
	walk = func(t types.Type) {
		switch t := types.Unalias(t).(type) {
		case *types.Named:
			obj := t.Obj()
			if obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), modulePath) || public[key(obj)] {
				return
			}
			public[key(obj)] = true
			walk(t.Underlying())
			for i := 0; i < t.NumMethods(); i++ {
				if m := t.Method(i); m.Exported() {
					walk(m.Type())
				}
			}
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Signature:
			tuple(t.Params())
			tuple(t.Results())
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() || f.Embedded() {
					walk(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				walk(t.Method(i).Type())
			}
		}
	}
	for _, p := range pkgs {
		rel := strings.TrimPrefix(p.Path, modulePath)
		if rel != "" && !strings.HasPrefix(rel, "/datagen") && !strings.HasPrefix(rel, "/stacks") {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			if obj := scope.Lookup(name); obj.Exported() {
				walk(obj.Type())
			}
		}
	}
	return public
}

func receiverNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}
