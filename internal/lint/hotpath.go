package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotpathDirective marks a function as part of the zero-allocation
// contract: the record path, the loadgen dispatch path, the sample-sink
// claim path. The allocs/op benchmarks prove these paths allocation-free
// at runtime; the directive makes the property visible to bdvet so a
// stray fmt.Sprintf or closure fails `make lint` before it ever reaches
// a benchmark.
const HotpathDirective = "//bdbench:hotpath"

// Hotpath flags allocating constructs inside //bdbench:hotpath
// functions: fmt calls, non-constant string concatenation,
// string<->[]byte conversions, function literals (closures), make/new,
// slice/map composite literals, appends without a visible reuse hint,
// variadic calls, interface boxing of non-pointer-shaped arguments, the
// context and timer constructors (context.WithTimeout, time.AfterFunc and
// the like), and metric handles minted from a label (Collector.Op,
// Shard.CounterRef and the like).
// The rules are conservative by design — a construct the compiler might
// optimize away still reads as an allocation hazard to the next editor —
// so the escape hatch is the same as everywhere: //bdvet:allow hotpath
// with a reason.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "flag allocating constructs and metric handle mints inside //bdbench:hotpath functions",
	Run:  runHotpath,
}

func runHotpath(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasDirective(fd.Doc, HotpathDirective) {
				continue
			}
			pass.checkHotBody(fd.Body)
		}
	}
	return nil
}

func (p *Pass) checkHotBody(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			p.Reportf(n.Pos(), "function literal in hot path: closures allocate; hoist it out or store it once at construction")
			return false // its body is not the hot path's body
		case *ast.CompositeLit:
			switch p.typeOf(n).Underlying().(type) {
			case *types.Slice:
				p.Reportf(n.Pos(), "slice literal allocates in hot path; preallocate at construction")
			case *types.Map:
				p.Reportf(n.Pos(), "map literal allocates in hot path; preallocate at construction")
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(p.typeOf(n)) && p.Info.Types[n].Value == nil {
				p.Reportf(n.Pos(), "string concatenation allocates in hot path; pre-build the label at construction")
			}
		case *ast.GoStmt:
			p.Reportf(n.Pos(), "go statement in hot path: spawning allocates a goroutine; start goroutines outside the hot path, from a func value bound at construction")
		case *ast.CallExpr:
			p.checkHotCall(n)
		}
		return true
	})
}

func (p *Pass) checkHotCall(call *ast.CallExpr) {
	tv, isExpr := p.Info.Types[call.Fun]
	switch {
	case isExpr && tv.IsType():
		// Conversion. Only the string<->[]byte/[]rune pairs copy.
		if p.Info.Types[call].Value != nil {
			return // constant-folded
		}
		dst := tv.Type
		src := p.typeOf(call.Args[0])
		if (isString(dst) && isByteish(src)) || (isByteish(dst) && isString(src)) {
			p.Reportf(call.Pos(), "%s conversion copies and allocates in hot path", types.TypeString(dst, nil))
		}
		return
	case isExpr && tv.IsBuiltin():
		id, _ := call.Fun.(*ast.Ident)
		if id == nil {
			return
		}
		switch id.Name {
		case "make":
			p.Reportf(call.Pos(), "make in hot path allocates; build the buffer at construction and reuse it")
		case "new":
			p.Reportf(call.Pos(), "new in hot path allocates; reuse a field or pool")
		case "append":
			// append(buf[:0], ...) reuses backing storage — the one
			// visible preallocation hint; anything else may grow.
			if _, reslice := call.Args[0].(*ast.SliceExpr); !reslice {
				p.Reportf(call.Pos(), "append in hot path may grow its backing array; append into a preallocated buffer (e.g. buf[:0]) or claim indexed slots")
			}
		}
		return
	}

	// Ordinary function or method call.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		obj, pkgPath := p.selectedObj(sel)
		if obj != nil && pkgPath == "fmt" {
			p.Reportf(call.Pos(), "fmt.%s in hot path: formatting allocates; record raw values and format at snapshot time", obj.Name())
			return
		}
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() == nil && allocatingFuncs[pkgPath+"."+fn.Name()] {
			p.Reportf(call.Pos(), "%s.%s in hot path allocates a context or timer; build it once outside the hot path and re-arm it", pkgPath, fn.Name())
			return
		}
		// Collector's and Shard's Op and CounterRef mint a handle from a label.
		if fn, ok := obj.(*types.Func); ok && (fn.Name() == "Op" || fn.Name() == "CounterRef") && strings.HasSuffix(pkgPath, "/internal/metrics") {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				p.Reportf(call.Pos(), "%s.%s in hot path looks its label up on every call and allocates the label's cell on a new one; mint the handle once outside the hot path",
					strings.TrimPrefix(types.TypeString(recv.Type(), (*types.Package).Name), "*"), fn.Name())
				return
			}
		}
	}
	sig, ok := p.typeOf(call.Fun).Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis == token.NoPos {
				if i == params.Len()-1 {
					p.Reportf(call.Pos(), "variadic call allocates its argument slice in hot path")
				}
				pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
			} else {
				pt = params.At(params.Len() - 1).Type()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if types.IsInterface(pt) && !types.IsInterface(p.typeOf(arg)) && !pointerShaped(p.typeOf(arg)) {
			p.Reportf(arg.Pos(), "passing %s to an interface parameter boxes it (allocates) in hot path; pass a pointer or restructure the call", types.TypeString(p.typeOf(arg), nil))
		}
	}
}

// allocatingFuncs are the context and time constructors: each call builds
// a context, a timer or both.
var allocatingFuncs = map[string]bool{
	"context.WithCancel": true, "context.WithCancelCause": true, "context.WithTimeout": true,
	"context.WithDeadline": true, "context.WithDeadlineCause": true, "context.WithValue": true,
	"context.AfterFunc": true, "time.AfterFunc": true, "time.NewTimer": true,
	"time.NewTicker": true, "time.After": true, "time.Tick": true,
}

func (p *Pass) typeOf(e ast.Expr) types.Type {
	t := p.Info.TypeOf(e)
	if t == nil {
		return types.Typ[types.Invalid]
	}
	return t
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteish(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// pointerShaped reports whether values of t fit an interface's data word
// without allocating: pointers, channels, maps, funcs, unsafe.Pointer.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer || u.Kind() == types.UntypedNil
	}
	return false
}
