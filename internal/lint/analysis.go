// Package lint implements bdvet, the repo's static enforcement of the three
// contracts its measurements depend on — contracts that runtime tests can
// only spot-check, because a test must happen to drive the offending code
// path:
//
//   - byte-determinism: packages whose output must be a pure function of
//     (spec, seed) — internal/datagen, internal/loadgen schedule
//     construction, internal/runstore encoding, internal/stats — must not
//     read wall clocks or ambient randomness, and must not let map
//     iteration order leak into output (detnondet);
//   - zero-allocation hot paths: functions marked //bdbench:hotpath (the
//     record path, the loadgen dispatch path, the sample-sink claim path)
//     must not contain allocating constructs (hotpath);
//   - metrics hygiene: steady-state loops must record through pre-resolved
//     OpRef/CounterRef handles, not per-call string keys (oprefed), and
//     engine-driven code must thread the task context instead of minting
//     context.Background (ctxbg).
//
// The analyzers follow the golang.org/x/tools/go/analysis model (an
// Analyzer runs over one type-checked package at a time and reports
// position-anchored diagnostics), but are built on the standard library
// alone: packages load through `go list -export` and type-check from
// source with imports satisfied from build-cache export data (see
// load.go), so the module keeps its empty dependency graph. cmd/bdvet is
// the front end.
//
// False positives at legitimately exempt sites are silenced with
//
//	//bdvet:allow <analyzer>[,<analyzer>] -- <reason>
//
// where the reason is mandatory: a reasonless allow is itself a
// diagnostic, so the suppression inventory stays auditable (suppress.go).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named static check. Run inspects a single
// type-checked package through the Pass and reports diagnostics; it
// never sees other packages, so every check is local by construction.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Analyzers returns the bdvet suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{Detnondet, Hotpath, Oprefed, Ctxbg}
}

// A Pass carries one package's syntax and type information to an
// analyzer's Run function.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Path is the package import path.
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      pos,
		Position: p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one reported violation, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Position token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Position, d.Analyzer, d.Message)
}

// RunAnalyzers applies the analyzers to every package, filters the raw
// diagnostics through //bdvet:allow suppressions, and returns what
// remains sorted by position. Malformed suppressions (no reason, unknown
// analyzer name) come back as diagnostics of the pseudo-analyzer
// "bdvet", so they fail the build like any other finding.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	known := make(map[string]bool, len(analyzers)+1)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		var raw []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Path:     pkg.Path,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				report:   func(d Diagnostic) { raw = append(raw, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
		kept, errs := applySuppressions(pkg, raw, known)
		out = append(out, kept...)
		out = append(out, errs...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Position, out[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// pathInScope reports whether the import path contains one of the scope
// fragments as a whole "/"-separated run of segments, so both real module
// paths ("github.com/bdbench/bdbench/internal/datagen/textgen") and bare
// testdata paths ("internal/datagen/det") match "internal/datagen".
func pathInScope(path string, scopes []string) bool {
	p := "/" + path + "/"
	for _, s := range scopes {
		if strings.Contains(p, "/"+s+"/") {
			return true
		}
	}
	return false
}

// isTestFile reports whether the file the node belongs to is a _test.go
// file. Contract analyzers exempt test code: tests measure wall time and
// label ad-hoc operations legitimately.
func (p *Pass) isTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// hasDirective reports whether the comment group contains the given
// directive comment (e.g. "//bdbench:hotpath" or "//bdvet:deterministic"),
// optionally followed by prose on the same line.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return true
		}
	}
	return false
}

// walkStack traverses the file like ast.Inspect but hands fn the stack of
// ancestor nodes (outermost first, not including n itself). Returning
// false prunes the subtree.
func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			// Pruned: push a placeholder so the matching pop stays
			// balanced? ast.Inspect does not descend, so no pop follows.
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// rootIdent unwraps selector/index/star/paren chains to the base
// identifier: rootIdent(a.b[i].c) == a. Nil when the base is not a plain
// identifier (e.g. a call result).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// pkgFunc resolves a call/selector to a package-level function object and
// returns it with its package path, or nil. Methods resolve too, with
// their receiver's package.
func (p *Pass) selectedObj(sel *ast.SelectorExpr) (types.Object, string) {
	obj := p.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return nil, ""
	}
	return obj, obj.Pkg().Path()
}
