package analysis

import (
	"go/ast"
	"go/types"
)

// CtxflowAnalyzer protects mid-compile cancellation. Since PR 2 every
// scheduling loop checks its context at each frontier step; that guarantee
// dies silently if an entry point drops the context on the floor or
// restarts the chain with a fresh background context. Two patterns are
// flagged:
//
//   - a function that takes a context.Context but never uses it (including
//     a blank "_" parameter): the caller's deadline and cancellation stop
//     propagating right there.
//   - a call to context.Background() or context.TODO() inside a function
//     that already has a context parameter: downstream work detaches from
//     the caller's cancellation mid-chain. Root-of-chain uses (main,
//     tests, benchmarks) have no context parameter and are not flagged.
var CtxflowAnalyzer = &Analyzer{
	Name: "ctxflow",
	Doc:  "flags dropped context parameters and mid-chain context.Background()/TODO() calls",
	Run:  runCtxflow,
}

func runCtxflow(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkCtxParams(pass, fn)
			checkMidChainBackground(pass, fn)
		}
	}
	return nil
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// ctxParams returns the identifiers of fn's context.Context parameters
// (blank ones included).
func ctxParams(pass *Pass, fn *ast.FuncDecl) []*ast.Ident {
	var out []*ast.Ident
	for _, field := range fn.Type.Params.List {
		if t := pass.TypesInfo.TypeOf(field.Type); t == nil || !isContextType(t) {
			continue
		}
		out = append(out, field.Names...)
	}
	return out
}

// checkCtxParams flags context parameters the body never consumes.
func checkCtxParams(pass *Pass, fn *ast.FuncDecl) {
	for _, name := range ctxParams(pass, fn) {
		if name.Name == "_" {
			pass.Reportf(name.Pos(), "%s discards its context.Context: cancellation stops propagating here (name and use it, or suppress with a reason)", fn.Name.Name)
			continue
		}
		obj := pass.TypesInfo.Defs[name]
		if obj == nil {
			continue
		}
		used := false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if used {
				return false
			}
			if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
				used = true
			}
			return !used
		})
		if !used {
			pass.Reportf(name.Pos(), "%s never uses its context.Context parameter %s: cancellation stops propagating here", fn.Name.Name, name.Name)
		}
	}
}

// checkMidChainBackground flags context.Background()/TODO() calls inside
// functions that already received a context.
func checkMidChainBackground(pass *Pass, fn *ast.FuncDecl) {
	if len(ctxParams(pass, fn)) == 0 {
		return
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			// A nested function literal is its own chain root only if it
			// escapes this one; keep checking — detaching inside a closure
			// spawned from a context-bearing function is the same bug.
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if obj := calleeObj(pass, call); obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" {
			switch obj.Name() {
			case "Background", "TODO":
				pass.Reportf(call.Pos(), "%s has a context parameter but calls context.%s(): downstream work detaches from the caller's cancellation", fn.Name.Name, obj.Name())
			}
		}
		return true
	})
}
