package lint

import (
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

// callerless lists the package-level names under internal/ that no
// non-test file refers to and that stay anyway, each with the reason.
var callerless = map[string]string{
	"internal/raceflag.Enabled":             "read by tests only: alloc assertions skip under -race",
	"internal/lint.CheckFiles":              "the analysistest harness loads testdata packages through it",
	"internal/datagen/formats.ReadEdgeList": "test oracle for WriteEdgeList: proves the writers' output parses back",

	// Figure 2 (`bdbench figure2`, pinned byte-identical) advertises
	// "CSV/TSV/JSONL/edge-list/KV conversion"; these go when that line does.
	"internal/datagen/formats.WriteKV": "the KV format Figure 2 lists",
	"internal/datagen/formats.ReadKV":  "the KV format Figure 2 lists",
	"internal/datagen/formats.Convert": "the conversion Figure 2 lists",
}

// TestInternalNamesHaveCallers holds the "no names nobody calls" rule: a
// package-level func, type, var or const declared under internal/ must be
// referred to by some non-test file of the module — cmd/, examples/,
// benchmark/ and the public facades included. A name that only its own
// tests exercise is dead weight with a green test beside it.
func TestInternalNamesHaveCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	pkgs, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	const module = "github.com/bdbench/bdbench/"
	key := func(obj types.Object) string {
		return strings.TrimPrefix(obj.Pkg().Path(), module) + "." + obj.Name()
	}
	isTest := func(fset *token.FileSet, pos token.Pos) bool {
		return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
	}
	packageLevel := func(obj types.Object) bool {
		return obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
	}

	used := map[string]bool{}
	declared := map[string]token.Position{}
	for _, p := range pkgs {
		for id, obj := range p.Info.Uses {
			if packageLevel(obj) && !isTest(p.Fset, id.Pos()) {
				used[key(obj)] = true
			}
		}
		if !strings.Contains(p.Path, "/internal/") || strings.Contains(p.Path, "/internal/tools/") {
			continue
		}
		for id, obj := range p.Info.Defs {
			if !packageLevel(obj) || isTest(p.Fset, id.Pos()) {
				continue
			}
			switch id.Name {
			case "_", "init", "main":
				continue
			}
			declared[key(obj)] = p.Fset.Position(id.Pos())
		}
		// A type's methods reach it without naming it: T is alive when a
		// method of T is selected anywhere outside tests.
		for sel, s := range p.Info.Selections {
			if isTest(p.Fset, sel.Pos()) {
				continue
			}
			if named := receiverNamed(s.Recv()); named != nil && packageLevel(named.Obj()) {
				used[key(named.Obj())] = true
			}
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
		dead = append(dead, pos.String()+": "+name)
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no non-test caller in the module; delete it (and the tests that exist only for it) or add it to callerless with a reason", d)
	}
	for name := range callerless {
		if _, ok := declared[name]; !ok {
			t.Errorf("callerless entry %q names nothing declared under internal/", name)
		} else if used[name] {
			t.Errorf("callerless entry %q has a non-test caller now; drop the entry", name)
		}
	}
}

func receiverNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}
