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
// "pkg.Name", methods as "pkg.Type.Method" — that no counting code refers to
// and that stay anyway, each with the reason: an error or diagnostic path (a
// String method only a fmt verb calls is here with the text that prints it),
// a documented extension point, a reader kept as its writer's round-trip
// oracle, a generator kept as a corpus's structured twin, or a name an open
// ROADMAP item calls for.
var callerless = map[string]string{
	"internal/raceflag.Enabled":                            "read by tests only: alloc assertions skip under -race",
	"internal/lint.CheckFiles":                             "the analysistest harness loads testdata packages through it",
	"internal/stats.Histogram.Total":                       "read by the binning tests: the count that includes out-of-range observations",
	"internal/data.Kind.String":                            "diagnostic: the error texts of Schema.Validate and tablegen.BuildSpec print a column kind through %v",
	"internal/scenario.Spec.String":                        "diagnostic: Spec.Validate's negative-settings error texts print the normalized spec through %s",
	"internal/datagen/formats.ReadTable":                   "round-trip oracle for WriteTable: proves the CSV parses back to the same cells",
	"internal/datagen/weblog.Parse":                        "round-trip oracle for Record.AppendFormat: proves a generated access-log line parses back to its record",
	"internal/datagen/textgen.RandomText.GenerateParallel": "structured twin of the \"text\" corpus: TestCorpusIsItsStructuredTwin compares the corpus bytes against it",
	"internal/datagen/veracity.Stream":                     "ROADMAP item 11 gives it its first caller: the arrival property test holds a generated Poisson stream's realised gaps, seam gaps included, to its KS test",
}

// ifaceMethods are the method names the standard library calls through an
// interface of its own (error, json.Marshaler, sort.Interface, io.Writer,
// ...), where the module holds no call to see. String is not among them: a
// String method nothing selects is on callerless with the text that prints it.
var ifaceMethods = map[string]bool{
	"Error": true, "MarshalJSON": true, "UnmarshalJSON": true, "Len": true, "Less": true, "Swap": true,
	"Write": true, "Read": true, "ServeHTTP": true, "Close": true, "Unwrap": true,
}

// TestInternalNamesHaveCallers holds the "no names nobody calls" rule: a
// package-level func, type, var or const and every method declared under
// internal/ must be referred to by code something runs — a non-test file
// under internal/, cmd/, examples/ or benchmark/, a public facade
// declaration that such code reaches, or an Example function of the root
// package. A name that only its own tests exercise is dead weight with a
// green test beside it.
//
// What does not count as a caller:
//   - a reference to T from inside T's own method set (a receiver, a body),
//     or to a method from its own body;
//   - a facade declaration (root package, datagen/..., stacks/...) that no
//     counting code refers to: an alias, a re-exported var or a wrapper is
//     a use of what it wraps only when something uses the facade name;
//   - a method's name occurring in an interface: an implementation is
//     exempt only when counting code calls that method through an
//     interface its type implements (or the name is in ifaceMethods);
//   - a type being public API: a method needs a selection of its own
//     whoever may hold the type.
func TestInternalNamesHaveCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	pkgs, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	// The root package's examples live in its external test package, which
	// Load skips; they are the one kind of test code that counts.
	examples, err := CheckFiles(modulePath+"_test", filepath.Join("..", ".."), []string{filepath.Join("..", "..", "example_test.go")})
	if err != nil {
		t.Fatal(err)
	}
	pkgs = append(pkgs[:len(pkgs):len(pkgs)], examples)

	key := func(obj types.Object) string {
		return strings.TrimPrefix(obj.Pkg().Path(), modulePath+"/") + "." + obj.Name()
	}
	packageLevel := func(obj types.Object) bool {
		return obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
	}
	// methodOf returns the package-level concrete type a method is declared
	// on and the method's "pkg.Type.Method" key; nil for anything else
	// (interface methods, plain functions).
	methodOf := func(obj types.Object) (*types.Named, string) {
		fn, ok := obj.(*types.Func)
		if !ok {
			return nil, ""
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return nil, ""
		}
		named := receiverNamed(recv.Type())
		if named == nil || !packageLevel(named.Obj()) || types.IsInterface(named) {
			return nil, ""
		}
		return named, key(named.Obj()) + "." + fn.Name()
	}
	facade := func(path string) bool {
		rel := strings.TrimPrefix(path, modulePath)
		return rel == "" || strings.HasPrefix(rel, "/datagen") || strings.HasPrefix(rel, "/stacks")
	}

	// owner maps every identifier to the top-level declaration around it:
	// for a method its (type, method) keys, and in a facade package the
	// declared names, whose liveness decides whether the identifier counts.
	type owner struct {
		typ, method string
		names       []string // keys of the names it declares
		example     bool     // a func Example...
	}
	owners := map[*ast.Ident]*owner{}
	ownerOf := func(id *ast.Ident) *owner {
		if o := owners[id]; o != nil {
			return o
		}
		return &owner{} // outside any declaration: a package clause, an import
	}
	own := func(p *Package, n ast.Node, o *owner, names ...*ast.Ident) {
		for _, name := range names {
			if obj := p.Info.Defs[name]; packageLevel(obj) {
				o.names = append(o.names, key(obj))
			}
		}
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				owners[id] = o
			}
			return true
		})
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					o := &owner{example: d.Recv == nil && strings.HasPrefix(d.Name.Name, "Example")}
					if named, method := methodOf(p.Info.Defs[d.Name]); named != nil {
						o.typ, o.method = key(named.Obj()), method
					}
					own(p, d, o, d.Name)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							own(p, spec, &owner{}, spec.Name)
						case *ast.ValueSpec:
							own(p, spec, &owner{}, spec.Names...)
						}
					}
				}
			}
		}
	}

	// A facade name is live when counting code outside the facades refers
	// to it, or a live facade declaration does.
	live := map[string]bool{}
	inTest := func(p *Package, pos token.Pos) bool {
		return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
	}
	counts := func(p *Package, id *ast.Ident) bool {
		switch {
		case p == examples:
			return ownerOf(id).example
		case inTest(p, id.Pos()):
			return false
		case !facade(p.Path):
			return true
		}
		for _, name := range ownerOf(id).names {
			if live[name] {
				return true
			}
		}
		return false
	}
	for grew := true; grew; {
		grew = false
		for _, p := range pkgs {
			for id, obj := range p.Info.Uses {
				if packageLevel(obj) && facade(obj.Pkg().Path()) && !live[key(obj)] && counts(p, id) {
					live[key(obj)], grew = true, true
				}
			}
		}
	}

	type ifaceCall struct {
		iface *types.Interface
		name  string
	}
	var viaInterface []ifaceCall
	used := map[string]bool{}
	declared := map[string]token.Position{}
	type methodDecl struct {
		typ  *types.Named
		name string
	}
	methods := map[string]methodDecl{} // by method key
	for _, p := range pkgs {
		for id, obj := range p.Info.Uses {
			if !packageLevel(obj) || !counts(p, id) {
				continue
			}
			if _, isType := obj.(*types.TypeName); isType && ownerOf(id).typ == key(obj) {
				continue
			}
			used[key(obj)] = true
		}
		for sel, s := range p.Info.Selections {
			if !counts(p, sel.Sel) {
				continue
			}
			in := ownerOf(sel.Sel)
			// A type's fields and methods reach it without naming it: T
			// is alive when one is selected outside tests and outside T.
			if named := receiverNamed(s.Recv()); named != nil && packageLevel(named.Obj()) && in.typ != key(named.Obj()) {
				used[key(named.Obj())] = true
			}
			if _, method := methodOf(s.Obj()); method != "" && method != in.method {
				used[method] = true
			}
			if it, ok := s.Recv().Underlying().(*types.Interface); ok && s.Kind() != types.FieldVal {
				viaInterface = append(viaInterface, ifaceCall{it, s.Obj().Name()})
			}
		}

		if !strings.Contains(p.Path, "/internal/") || strings.Contains(p.Path, "/internal/tools/") {
			continue
		}
		for id, obj := range p.Info.Defs {
			if obj == nil || inTest(p, id.Pos()) {
				continue
			}
			if named, method := methodOf(obj); named != nil {
				declared[method] = p.Fset.Position(id.Pos())
				methods[method] = methodDecl{named, id.Name}
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
	calledThroughInterface := func(m methodDecl) bool {
		if ifaceMethods[m.name] {
			return true
		}
		for _, c := range viaInterface {
			if c.name == m.name && implements(m.typ, c.iface) {
				return true
			}
		}
		return false
	}

	var dead []string
	for name, pos := range declared {
		if used[name] {
			continue
		}
		if _, ok := callerless[name]; ok {
			continue
		}
		if m, isMethod := methods[name]; isMethod && calledThroughInterface(m) {
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

// implements is types.Implements for a type and an interface that were
// type-checked apart (Load checks every package from source against its
// imports' export data, so one named type is two objects): the pointer
// method set has each interface method under the same name with the same
// parameter and result types, compared as text.
func implements(t *types.Named, it *types.Interface) bool {
	text := func(f types.Object) string {
		sig := f.Type().(*types.Signature)
		return types.TypeString(types.NewSignatureType(nil, nil, nil, unnamed(sig.Params()), unnamed(sig.Results()), sig.Variadic()), nil)
	}
	ms := types.NewMethodSet(types.NewPointer(t))
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		if sel := ms.Lookup(m.Pkg(), m.Name()); sel == nil || text(sel.Obj()) != text(m) {
			return false
		}
	}
	return true
}

func unnamed(tu *types.Tuple) *types.Tuple {
	vars := make([]*types.Var, tu.Len())
	for i := range vars {
		vars[i] = types.NewVar(token.NoPos, nil, "", tu.At(i).Type())
	}
	return types.NewTuple(vars...)
}

func receiverNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}
