package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotallocAnalyzer freezes the PR 4 performance wins: the compile hot path
// (DAG frontier maintenance, the scheduler step, the per-qubit look-ahead
// query, the SWAP-inserter and the sim engine's per-op methods) is
// allocation-free in steady state, and the benchmarks pin it. This pass
// makes the invariant reviewable without running benchmarks: inside any
// function whose doc comment carries //mussti:hotpath, it flags constructs
// that heap-allocate every call:
//
//   - map and slice composite literals, &T{...} pointer literals,
//     make and new;
//   - fmt.* calls (Sprintf formatting allocates; fmt.Errorf is exempt
//     directly inside a return statement or panic — a failing path is by
//     definition not steady state);
//   - function literals that capture variables (the closure cell escapes
//     unless the callee provably doesn't retain it — sites pinned
//     non-escaping by a benchmark carry an allow directive saying so);
//   - string concatenation and string<->[]byte/[]rune conversions;
//   - go and defer statements.
//
// Intentional cold-path allocations inside a hot function — lazily growing
// a scratch buffer, building an error — are suppressed line by line with
// //mussti:allow=hotalloc plus a reason, which doubles as documentation of
// why the allocation is acceptable.
var HotallocAnalyzer = &Analyzer{
	Name: "hotalloc",
	Doc:  "flags per-call heap allocations inside //mussti:hotpath functions",
	Run:  runHotalloc,
}

func runHotalloc(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hasDirective(fn.Doc, "hotpath") {
				continue
			}
			checkHotFunc(pass, fn)
		}
	}
	return nil
}

// checkHotFunc walks one hot function's body with an ancestor stack, so
// failure-path constructs (inside return or panic) can be exempted.
func checkHotFunc(pass *Pass, fn *ast.FuncDecl) {
	var stack []ast.Node
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.CompositeLit:
			checkCompositeLit(pass, fn, n, stack)
		case *ast.CallExpr:
			checkHotCall(pass, fn, n, stack)
		case *ast.FuncLit:
			if capturesVariables(pass, n) && !onFailurePath(stack) {
				pass.Reportf(n.Pos(), "%s is a hot path: closure captures variables and may heap-allocate per call (hoist it, or allow with the benchmark that pins it non-escaping)", fn.Name.Name)
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && !onFailurePath(stack) {
				if t := pass.TypesInfo.TypeOf(n); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						pass.Reportf(n.Pos(), "%s is a hot path: string concatenation allocates per call", fn.Name.Name)
					}
				}
			}
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "%s is a hot path: starting a goroutine allocates per call", fn.Name.Name)
		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "%s is a hot path: defer costs per call; restructure with explicit cleanup", fn.Name.Name)
		}
		return true
	}
	ast.Inspect(fn.Body, visit)
}

// checkCompositeLit flags literals whose backing store heap-allocates: map
// and slice literals always, struct literals only behind &. Value struct
// and array literals live on the stack and pass.
func checkCompositeLit(pass *Pass, fn *ast.FuncDecl, lit *ast.CompositeLit, stack []ast.Node) {
	if onFailurePath(stack) {
		return
	}
	t := pass.TypesInfo.TypeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Map:
		pass.Reportf(lit.Pos(), "%s is a hot path: map literal allocates per call", fn.Name.Name)
	case *types.Slice:
		pass.Reportf(lit.Pos(), "%s is a hot path: slice literal allocates per call (a [N]T array stays on the stack)", fn.Name.Name)
	default:
		if len(stack) >= 2 {
			if u, ok := stack[len(stack)-2].(*ast.UnaryExpr); ok && u.Op == token.AND && u.X == lit {
				pass.Reportf(u.Pos(), "%s is a hot path: &%s{...} escapes to the heap per call", fn.Name.Name, types.TypeString(t, types.RelativeTo(pass.Pkg)))
			}
		}
	}
}

// checkHotCall flags allocating builtins and fmt calls.
func checkHotCall(pass *Pass, fn *ast.FuncDecl, call *ast.CallExpr, stack []ast.Node) {
	if pass.TypesInfo.Types[call.Fun].IsType() {
		// Conversion: string <-> []byte/[]rune copies per call.
		if onFailurePath(stack) {
			return
		}
		to := pass.TypesInfo.TypeOf(call)
		from := pass.TypesInfo.TypeOf(call.Args[0])
		if to != nil && from != nil && isStringBytesPair(to, from) {
			pass.Reportf(call.Pos(), "%s is a hot path: %s conversion copies per call", fn.Name.Name, types.TypeString(to, types.RelativeTo(pass.Pkg)))
		}
		return
	}
	obj := calleeObj(pass, call)
	if obj == nil {
		return
	}
	if b, ok := obj.(*types.Builtin); ok {
		switch b.Name() {
		case "make", "new":
			if !onFailurePath(stack) {
				pass.Reportf(call.Pos(), "%s is a hot path: %s allocates per call (reuse a scratch buffer, or allow the growth branch with a reason)", fn.Name.Name, b.Name())
			}
		}
		return
	}
	if obj.Pkg() != nil && obj.Pkg().Path() == "fmt" && !onFailurePath(stack) {
		pass.Reportf(call.Pos(), "%s is a hot path: fmt.%s formats and allocates per call", fn.Name.Name, obj.Name())
	}
}

// onFailurePath reports whether the innermost node sits under a return
// statement or a panic argument — paths taken only when the call is about
// to unwind, hence never in steady state.
func onFailurePath(stack []ast.Node) bool {
	for _, n := range stack {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			return true
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// capturesVariables reports whether the function literal references any
// variable declared outside itself (a closure that needs a heap cell when
// it escapes).
func capturesVariables(pass *Pass, lit *ast.FuncLit) bool {
	captures := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captures {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		v, isVar := obj.(*types.Var)
		if !isVar || v.IsField() {
			return true
		}
		// Package-level variables are not captured; locals declared before
		// the literal but used inside it are.
		if v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return true
		}
		if v.Pos() < lit.Pos() {
			captures = true
		}
		return !captures
	})
	return captures
}

// isStringBytesPair reports whether the conversion moves between string and
// []byte/[]rune in either direction.
func isStringBytesPair(a, b types.Type) bool {
	isStr := func(t types.Type) bool {
		bt, ok := t.Underlying().(*types.Basic)
		return ok && bt.Info()&types.IsString != 0
	}
	isByteSlice := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		e, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune || e.Kind() == types.Uint8 || e.Kind() == types.Int32)
	}
	return (isStr(a) && isByteSlice(b)) || (isByteSlice(a) && isStr(b))
}
