package lint

import (
	"go/ast"
	"go/types"
	"strings"
	"testing"
)

// reflectiveSorts lists the functions under the data-path packages that still
// call sort.Slice or sort.SliceStable, as "pkg.Func", each with the reason.
var reflectiveSorts = map[string]string{
	"internal/runstore.canonicalize":     "orders a run's series, a few dozen rows; their samples go through slices.SortFunc",
	"internal/runstore.compareWorkloads": "orders the comparison's workload rows, one per workload",
	"internal/runstore.compareSeries":    "orders the comparison's series rows, one per (workload, op)",
}

// TestNoReflectiveSortOnDataPaths: sort.Slice and sort.SliceStable swap through
// reflection (reflectlite.Swapper, typedmemmove, a write barrier per word),
// which was a third of batch_mix's CPU while the shuffle used them. Under the
// substrates, the run store and the workloads a sort over records, samples or
// rows is slices.Sort*Func; what stays sorts a handful of report rows and says so.
func TestNoReflectiveSortOnDataPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	pkgs, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, p := range pkgs {
		rel := strings.TrimPrefix(p.Path, modulePath+"/")
		if !strings.HasPrefix(rel, "internal/stacks/") && !strings.HasPrefix(rel, "internal/workloads") && rel != "internal/runstore" {
			continue
		}
		for _, f := range p.Files {
			if strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go") {
				continue
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				ast.Inspect(fd, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := p.Info.Uses[id].(*types.Func)
					if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sort" || (fn.Name() != "Slice" && fn.Name() != "SliceStable") {
						return true
					}
					name := rel + "." + fd.Name.Name
					found[name] = true
					if _, ok := reflectiveSorts[name]; !ok {
						t.Errorf("%s: sort.%s in %s; use slices.Sort*Func, or list the function in reflectiveSorts with a reason", p.Fset.Position(id.Pos()), fn.Name(), name)
					}
					return true
				})
			}
		}
	}
	for name, reason := range reflectiveSorts {
		if reason == "" {
			t.Errorf("reflectiveSorts entry %q gives no reason", name)
		}
		if !found[name] {
			t.Errorf("reflectiveSorts entry %q no longer calls sort.Slice or sort.SliceStable; drop the entry", name)
		}
	}
}
