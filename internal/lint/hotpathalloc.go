package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// HotPathAlloc returns the analyzer enforcing the allocation-free
// steady-state contract of the scan engine: functions reachable on the
// call graph from `// lint:hotpath` roots (the whole frame,
// adaptive.System.ProcessFrameCtx; pipeline.windowSweep.run, the frame
// stack build pipeline.FrameStack.ensure, the
// hog.BlockGrid/svm.BlockModel compute paths, the metrics record
// paths) run once or thousands of times per frame, and PR 5's pooled
// scratch design keeps them allocation-free. The analyzer freezes that
// property by flagging allocating constructs inside every hot
// function:
//
//   - un-pre-sized append growth (append whose destination is neither
//     a make-with-capacity local nor inside a cap/len-guarded
//     amortization),
//   - map and slice literals and make(map...) — make([]T, n, cap)
//     stays allowed: explicit sizing is the sanctioned pattern,
//   - closures capturing loop variables (one closure + captured cell
//     per iteration),
//   - any fmt.* call (interface boxing + formatting state),
//   - boxing a concrete value into interface{} / any.
//
// Intentional allocations (detection output that escapes to the
// caller, one-time LUT initialization, cold error paths) carry a
// `// lint:alloc <reason>` annotation; the reason is mandatory.
func HotPathAlloc() *Analyzer {
	return &Analyzer{
		Name: "hotpathalloc",
		Doc:  "forbids allocating constructs in functions reachable from lint:hotpath roots",
		Run:  runHotPathAlloc,
	}
}

func runHotPathAlloc(p *Pass) {
	if p.IsCommand() || p.IsTestPackage() {
		return
	}
	hot := p.Prog.HotReachable()
	for _, node := range p.Prog.NodesOf(p.Package) {
		if node.Body == nil || !hot[node.ID] {
			continue
		}
		if node.File != nil && p.TestFiles[node.File] {
			continue
		}
		checkHotFunc(p, node)
	}
}

// allocAllowed consumes a lint:alloc annotation at pos. An annotation
// without a reason is itself a finding — the escape hatch documents
// WHY the allocation is acceptable, not merely that someone wanted it.
func allocAllowed(p *Pass, pos token.Pos) bool {
	arg, ok := p.DirectiveArgAt(pos, "alloc")
	if !ok {
		return false
	}
	if arg == "" {
		p.Reportf(pos, "lint:alloc needs a reason justifying the allocation")
	}
	return true
}

// span is a source interval inside which amortized growth is allowed.
type span struct{ lo, hi token.Pos }

func inSpans(pos token.Pos, spans []span) bool {
	for _, s := range spans {
		if pos >= s.lo && pos <= s.hi {
			return true
		}
	}
	return false
}

// checkHotFunc walks one hot function's own body (nested literals are
// their own nodes) reporting allocating constructs.
func checkHotFunc(p *Pass, node *FuncNode) {
	presized := presizedSlices(p, node)
	guards := capGuardSpans(p, node.Body)
	capReported := map[string]bool{}

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // separate node, checked on its own
		case *ast.ForStmt:
			checkLoopClosures(p, n.Body, loopVarsFor(p, n), capReported)
		case *ast.RangeStmt:
			checkLoopClosures(p, n.Body, loopVarsRange(p, n), capReported)
		case *ast.CompositeLit:
			t := p.Info.TypeOf(n)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Map:
				if !allocAllowed(p, n.Pos()) {
					p.Reportf(n.Pos(), "map literal allocates in a hot path; hoist it or annotate // lint:alloc <reason>")
				}
				return false
			case *types.Slice:
				if !allocAllowed(p, n.Pos()) {
					p.Reportf(n.Pos(), "slice literal allocates in a hot path; hoist it or annotate // lint:alloc <reason>")
				}
				return false
			}
		case *ast.CallExpr:
			checkHotCall(p, n, presized, guards)
		}
		return true
	}
	ast.Inspect(node.Body, walk)
}

// checkHotCall reports allocating call forms: append/make misuse,
// fmt.*, and empty-interface boxing of concrete arguments.
func checkHotCall(p *Pass, call *ast.CallExpr, presized map[types.Object]bool, guards []span) {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch b.Name() {
			case "append":
				checkAppend(p, call, presized, guards)
			case "make":
				checkMake(p, call)
			}
			return
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if fn, ok := p.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			if !allocAllowed(p, call.Pos()) {
				p.Reportf(call.Pos(), "fmt.%s in a hot path boxes arguments and allocates; format outside the frame loop or annotate // lint:alloc <reason>", fn.Name())
			}
			return
		}
	}
	checkBoxing(p, call)
}

func checkAppend(p *Pass, call *ast.CallExpr, presized map[types.Object]bool, guards []span) {
	if len(call.Args) == 0 {
		return
	}
	if id, ok := call.Args[0].(*ast.Ident); ok {
		if obj := p.Info.Uses[id]; obj != nil && presized[obj] {
			return
		}
	}
	if inSpans(call.Pos(), guards) {
		return // amortized growth behind a cap/len check
	}
	if !allocAllowed(p, call.Pos()) {
		p.Reportf(call.Pos(), "un-pre-sized append growth in a hot path; size the slice from the geometry (make with capacity) or annotate // lint:alloc <reason>")
	}
}

func checkMake(p *Pass, call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	t := p.Info.TypeOf(call.Args[0])
	if t == nil {
		return
	}
	// make([]T, n) / make([]T, 0, cap) is the sanctioned pre-sizing
	// pattern (the size comes from the geometry), so only maps — whose
	// assembly also risks ordered iteration later — are flagged here.
	if _, isMap := t.Underlying().(*types.Map); isMap {
		if !allocAllowed(p, call.Pos()) {
			p.Reportf(call.Pos(), "make(map) allocates in a hot path; use a fixed arena or annotate // lint:alloc <reason>")
		}
	}
}

// checkBoxing flags concrete values passed where the callee takes an
// empty interface (interface{} / any): the conversion heap-allocates
// the value. Non-empty interfaces (error, io.Writer) express real
// polymorphism and stay allowed.
func checkBoxing(p *Pass, call *ast.CallExpr) {
	tv, ok := p.Info.Types[call.Fun]
	if !ok || tv.IsType() {
		return // conversion, not a call
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	if params.Len() == 0 {
		return
	}
	paramType := func(i int) types.Type {
		if sig.Variadic() && i >= params.Len()-1 {
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				return s.Elem()
			}
		}
		if i < params.Len() {
			return params.At(i).Type()
		}
		return nil
	}
	for i, arg := range call.Args {
		pt := paramType(i)
		if pt == nil {
			continue
		}
		iface, isIface := pt.Underlying().(*types.Interface)
		if !isIface || iface.NumMethods() != 0 {
			continue
		}
		at := p.Info.TypeOf(arg)
		if at == nil {
			continue
		}
		if b, ok := at.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		if _, argIsIface := at.Underlying().(*types.Interface); argIsIface {
			continue
		}
		if !allocAllowed(p, arg.Pos()) {
			p.Reportf(arg.Pos(), "boxing %s into interface{} allocates in a hot path; keep the call monomorphic or annotate // lint:alloc <reason>", at.String())
		}
	}
}

// presizedSlices collects slice variables initialized from make(...)
// in node or an enclosing function (closures append into their
// parents' pre-sized buffers).
func presizedSlices(p *Pass, node *FuncNode) map[types.Object]bool {
	out := map[types.Object]bool{}
	for n := node; n != nil; {
		if n.Body != nil {
			collectPresized(p, n.Body, out)
		}
		if n.Parent == "" {
			break
		}
		n = p.Prog.Node(n.Parent)
	}
	return out
}

func collectPresized(p *Pass, body ast.Node, out map[types.Object]bool) {
	record := func(lhs ast.Expr, rhs ast.Expr) {
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			return
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok {
			return
		}
		if b, isBuiltin := p.Info.Uses[id].(*types.Builtin); !isBuiltin || b.Name() != "make" {
			return
		}
		if len(call.Args) == 0 {
			return
		}
		t := p.Info.TypeOf(call.Args[0])
		if t == nil {
			return
		}
		if _, isSlice := t.Underlying().(*types.Slice); !isSlice {
			return
		}
		target, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		if obj := p.Info.Defs[target]; obj != nil {
			out[obj] = true
		} else if obj := p.Info.Uses[target]; obj != nil {
			out[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					record(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					record(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
}

// capGuardSpans collects the spans of if statements and loops whose
// condition consults cap() or len() — the amortized-growth idiom
// (grow only when the buffer is too small) that the pooled scratch
// layer is built on.
func capGuardSpans(p *Pass, body ast.Node) []span {
	var out []span
	ast.Inspect(body, func(n ast.Node) bool {
		var cond ast.Expr
		switch n := n.(type) {
		case *ast.IfStmt:
			cond = n.Cond
		case *ast.ForStmt:
			cond = n.Cond
		default:
			return true
		}
		if cond == nil || !mentionsCapLen(p, cond) {
			return true
		}
		nd := n.(ast.Node)
		out = append(out, span{lo: nd.Pos(), hi: nd.End()})
		return true
	})
	return out
}

func mentionsCapLen(p *Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if b, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin && (b.Name() == "cap" || b.Name() == "len") {
			found = true
		}
		return !found
	})
	return found
}

// loopVarsFor returns the objects defined by a for statement's init.
func loopVarsFor(p *Pass, n *ast.ForStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	if assign, ok := n.Init.(*ast.AssignStmt); ok {
		for _, lhs := range assign.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := p.Info.Defs[id]; obj != nil {
					out[obj] = true
				}
			}
		}
	}
	return out
}

// loopVarsRange returns the objects defined by a range statement.
func loopVarsRange(p *Pass, n *ast.RangeStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	for _, e := range []ast.Expr{n.Key, n.Value} {
		if id, ok := e.(*ast.Ident); ok {
			if obj := p.Info.Defs[id]; obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}

// checkLoopClosures reports function literals inside a loop body that
// capture the loop's variables: each iteration allocates the closure
// plus a cell per captured variable.
func checkLoopClosures(p *Pass, body *ast.BlockStmt, loopVars map[types.Object]bool, reported map[string]bool) {
	if len(loopVars) == 0 {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(inner ast.Node) bool {
			id, ok := inner.(*ast.Ident)
			if !ok {
				return true
			}
			obj := p.Info.Uses[id]
			if obj == nil || !loopVars[obj] {
				return true
			}
			key := fmt.Sprintf("%d:%s", lit.Pos(), obj.Name())
			if reported[key] {
				return true
			}
			reported[key] = true
			if !allocAllowed(p, lit.Pos()) {
				p.Reportf(lit.Pos(), "closure captures loop variable %s and allocates per iteration; pass it as a parameter or annotate // lint:alloc <reason>", obj.Name())
			}
			return true
		})
		return true
	})
}
