package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Oprefed flags the collector's one-shot conveniences —
// Collector.ObserveLatency and Collector.Add — called inside a loop in
// internal non-test code. They resolve their label on every call, which is
// right for a phase-level measurement and wrong for a loop body:
// per-iteration recording belongs on an OpRef/CounterRef minted once outside
// the loop (Collector.Op, Shard.Op), which is both allocation-free and
// lookup-free. Below the collector there is nothing
// to police — shards record only through handles. One-shot calls outside
// loops stay legal, as does anything in _test.go files.
var Oprefed = &Analyzer{
	Name: "oprefed",
	Doc:  "flag Collector.ObserveLatency/Add in steady-state loops where an OpRef/CounterRef should be minted once",
	Run:  runOprefed,
}

// oprefExempt carves out packages where the conveniences are the point:
// metrics implements them, lint analyzes them, tools are offline dev
// utilities.
var oprefExempt = []string{
	"internal/metrics",
	"internal/lint",
	"internal/tools",
}

// stringKeyedMethods are the Collector methods whose first argument is
// a label resolved per call. The handles (OpRef, CounterRef)
// deliberately share none of these names.
var stringKeyedMethods = map[string]bool{
	"ObserveLatency": true,
	"Add":            true,
}

func runOprefed(pass *Pass) error {
	path := "/" + pass.Path + "/"
	if !strings.Contains(path, "/internal/") || pathInScope(pass.Path, oprefExempt) {
		return nil
	}
	for _, file := range pass.Files {
		if pass.isTestFile(file.Pos()) {
			continue
		}
		walkStack(file, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if name := pass.collectorConvenience(sel); name != "" && inLoop(stack) {
				pass.Reportf(call.Pos(), "string-keyed Collector.%s in a steady-state loop resolves its label on every iteration; mint an OpRef/CounterRef once outside the loop (Collector.Op, Shard.Op)", name)
			}
			return true
		})
	}
	return nil
}

// collectorConvenience returns the method name when the selector is one
// of metrics.Collector's string-keyed conveniences, or "".
func (p *Pass) collectorConvenience(sel *ast.SelectorExpr) string {
	obj, pkgPath := p.selectedObj(sel)
	fn, ok := obj.(*types.Func)
	if !ok || !isMetricsPkg(pkgPath) || !stringKeyedMethods[fn.Name()] {
		return ""
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || namedName(recv.Type()) != "Collector" {
		return ""
	}
	return fn.Name()
}

// isMetricsPkg matches the real metrics package and analysistest stubs.
func isMetricsPkg(path string) bool {
	return path == "metrics" || strings.HasSuffix(path, "/metrics")
}

// namedName returns the name of the (possibly pointer-wrapped) named
// receiver type, or "".
func namedName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// inLoop reports whether any ancestor is a for or range statement.
// Function literals do not reset the answer: a closure defined inside a
// loop runs per iteration.
func inLoop(stack []ast.Node) bool {
	for _, n := range stack {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		}
	}
	return false
}
