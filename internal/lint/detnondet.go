package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// detScopes names the determinism-contract packages: everything under
// them must produce output that is a pure function of (spec, seed) — the
// property the whole benchmark's repeatability rests on (byte-identical
// corpora at any worker count, canonical runstore blobs, seed-derived
// schedules, workloads and stacks that time only on the run's clock,
// metrics.Collector.Now). Matched as path segments, so module-qualified and
// bare testdata paths both hit.
var detScopes = []string{
	"internal/datagen",
	"internal/loadgen",
	"internal/runstore",
	"internal/stacks",
	"internal/stats",
	"internal/workloads",
}

// detDirective opts any other package into the determinism contract.
const detDirective = "//bdvet:deterministic"

// Detnondet flags sources of nondeterminism inside determinism-contract
// packages: wall-clock reads (time.Now/Since/Until), ambient global
// randomness (math/rand top-level functions, anything from crypto/rand),
// and map-range loops whose iteration order leaks into an output slice
// or encoder without a sort. Test files are exempt; the few legitimate
// wall-clock sites (injected-clock defaults, rate probes) carry
// //bdvet:allow annotations with their justification.
var Detnondet = &Analyzer{
	Name: "detnondet",
	Doc:  "flag wall clocks, ambient randomness, and order-leaking map ranges in determinism-contract packages",
	Run:  runDetnondet,
}

// randConstructors are the math/rand(/v2) package-level functions that
// build explicitly-seeded generators; they are the fix, not the bug.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runDetnondet(pass *Pass) error {
	if !pathInScope(pass.Path, detScopes) && !hasFileDirective(pass.Files, detDirective) {
		return nil
	}
	for _, file := range pass.Files {
		if pass.isTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				pass.checkAmbientRef(n)
			case *ast.RangeStmt:
				pass.checkMapRange(file, n)
			}
			return true
		})
	}
	return nil
}

// checkAmbientRef flags any use — call or value — of a wall-clock or
// ambient-randomness symbol. Value uses matter too: storing time.Now as
// a default clock is how the seam is built, and the one place it is
// legitimate carries an annotation saying so.
func (p *Pass) checkAmbientRef(sel *ast.SelectorExpr) {
	obj, pkgPath := p.selectedObj(sel)
	if obj == nil {
		return
	}
	if pkgPath == "crypto/rand" {
		p.Reportf(sel.Pos(), "crypto/rand (%s) is ambient randomness; results must be a function of (spec, seed) — derive from the seeded RNG instead", obj.Name())
		return
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() != nil {
		return // methods (e.g. (*rand.Rand).Intn) are the seeded path
	}
	switch pkgPath {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			p.Reportf(sel.Pos(), "wall clock (time.%s) in a determinism-contract package; inject a clock through the package's seam or annotate the site //bdvet:allow detnondet -- <reason>", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] {
			p.Reportf(sel.Pos(), "global math/rand state (rand.%s) is seeded per process, not per spec; use the (seed, chunk)-derived *rand.Rand the package already threads", fn.Name())
		}
	}
}

// checkMapRange flags `for ... range m` over a map when the body feeds
// an order-sensitive sink declared outside the loop: appending to an
// outer slice, or calling a Write*/Encode*/Marshal*/Fprint* method on an
// outer value. Appends whose slice is later passed to a sort.*/slices.*
// call in the same function are the canonical sorted-keys idiom and stay
// silent; so do writes into outer maps or indexed slots, which are
// order-independent.
func (p *Pass) checkMapRange(file *ast.File, rng *ast.RangeStmt) {
	t := p.Info.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	enclosing := enclosingFuncBody(file, rng.Pos())
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !p.isBuiltin(call, "append") {
					continue
				}
				id := rootIdent(call.Args[0])
				if id == nil {
					continue
				}
				obj := p.Info.ObjectOf(id)
				if obj == nil || !declaredOutside(obj, rng) {
					continue
				}
				if enclosing != nil && p.sortedInFunc(enclosing, obj) {
					continue
				}
				p.Reportf(n.Pos(), "map iteration order leaks into %s; collect keys, sort them, then append in key order (or //bdvet:allow detnondet -- <reason>)", id.Name)
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			if !strings.HasPrefix(name, "Write") && !strings.HasPrefix(name, "Encode") &&
				!strings.HasPrefix(name, "Marshal") && !strings.HasPrefix(name, "Fprint") {
				return true
			}
			id := rootIdent(sel.X)
			if id == nil {
				return true
			}
			obj := p.Info.ObjectOf(id)
			if obj == nil || !declaredOutside(obj, rng) {
				return true
			}
			p.Reportf(n.Pos(), "map iteration order reaches %s.%s; encode in sorted key order (or //bdvet:allow detnondet -- <reason>)", id.Name, name)
		}
		return true
	})
}

// isBuiltin reports whether the call invokes the named builtin.
func (p *Pass) isBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := p.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// declaredOutside reports whether obj's declaration lies outside the
// node's span — an "outer" variable from the loop body's point of view.
func declaredOutside(obj types.Object, n ast.Node) bool {
	return obj.Pos() < n.Pos() || obj.Pos() > n.End()
}

// enclosingFuncBody returns the body of the innermost function
// declaration or literal containing pos.
func enclosingFuncBody(file *ast.File, pos token.Pos) *ast.BlockStmt {
	var body *ast.BlockStmt
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil || pos < n.Pos() || pos > n.End() {
			return n == nil
		}
		switch n := n.(type) {
		case *ast.FuncDecl:
			body = n.Body
		case *ast.FuncLit:
			body = n.Body
		}
		return true
	})
	return body
}

// sortedInFunc reports whether obj appears as an argument to a
// sort.*/slices.* call anywhere in the function body — the sorted-keys
// idiom's second half.
func (p *Pass) sortedInFunc(body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fnObj, pkgPath := p.selectedObj(sel)
		if fnObj == nil || (pkgPath != "sort" && pkgPath != "slices") {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, ok := a.(*ast.Ident); ok && p.Info.ObjectOf(id) == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// hasFileDirective reports whether any file-level comment in the package
// carries the directive (package docs and floating comments both count).
func hasFileDirective(files []*ast.File, directive string) bool {
	for _, f := range files {
		for _, group := range f.Comments {
			if hasDirective(group, directive) {
				return true
			}
		}
	}
	return false
}
