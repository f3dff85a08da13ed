package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// leakcheckScope names the package-path fragments the pass covers: the
// compiler and the concurrency machinery around it (the worker pool, the
// process fleet) and the pass's own fixtures. cmd/ entry points are excluded deliberately —
// their goroutines live for the process and are reaped by exit.
var leakcheckScope = []string{
	"internal/core",
	"internal/eval",
	"internal/dist",
	"testdata/src/leakcheck",
}

// LeakcheckAnalyzer protects the "no leaked goroutines after cancel + Close"
// guarantee the PR 5/7 tests pin dynamically. Within internal/{core,eval,dist}
// it enforces two structural rules:
//
//   - every goroutine must carry a completion signal in its own body — a
//     sync.WaitGroup Done, a close of a channel, or a send the launcher can
//     receive. A goroutine with none of these can outlive its launcher with
//     no way to join it, which is exactly how workers leak past Close.
//   - a loop that blocks on channel operations must also select on a
//     context's Done channel (or receive from one), so cancellation can
//     interrupt it. Operations inside a select with a default case are
//     non-blocking and exempt.
//
// Both rules are syntactic over one function body: a goroutine joined by
// machinery the pass cannot see (or a loop whose channel provably never
// blocks) carries an //mussti:allow=leakcheck directive naming that reason,
// keeping every exception reviewable.
var LeakcheckAnalyzer = &Analyzer{
	Name: "leakcheck",
	Doc:  "flags unjoinable goroutines and cancellation-deaf channel loops in internal/{core,eval,dist}",
	Run:  runLeakcheck,
}

func runLeakcheck(pass *Pass) error {
	path := pass.Pkg.Path()
	inScope := false
	for _, frag := range leakcheckScope {
		if strings.Contains(path, frag) {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				checkGoroutineJoin(pass, n)
			case *ast.ForStmt:
				checkLoopCancellation(pass, n.Pos(), n.Body, nil)
			case *ast.RangeStmt:
				var rangeOp ast.Node
				if t := pass.TypesInfo.TypeOf(n.X); t != nil {
					if _, isChan := t.Underlying().(*types.Chan); isChan {
						rangeOp = n
					}
				}
				checkLoopCancellation(pass, n.Pos(), n.Body, rangeOp)
			}
			return true
		})
	}
	return nil
}

// checkGoroutineJoin enforces the completion-signal rule on one go statement.
func checkGoroutineJoin(pass *Pass, g *ast.GoStmt) {
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		pass.Reportf(g.Pos(), "goroutine body is a plain call with no completion signal the launcher can join; wrap it in a func literal that calls a WaitGroup's Done, closes a channel, or sends on one")
		return
	}
	joined := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if joined {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			joined = true
		case *ast.CallExpr:
			if isWaitGroupDone(pass, n) || isCloseCall(pass, n) {
				joined = true
			}
		}
		return !joined
	})
	if !joined {
		pass.Reportf(g.Pos(), "goroutine has no completion signal in its body (WaitGroup Done, channel close or send): it cannot be joined and may outlive its launcher")
	}
}

// isWaitGroupDone matches wg.Done() where wg is a sync.WaitGroup.
func isWaitGroupDone(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" || len(call.Args) != 0 {
		return false
	}
	t := pass.TypesInfo.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}

// isCloseCall matches the builtin close(ch).
func isCloseCall(pass *Pass, call *ast.CallExpr) bool {
	b, ok := calleeObj(pass, call).(*types.Builtin)
	return ok && b.Name() == "close"
}

// checkLoopCancellation enforces the ctx.Done rule on one loop body. rangeOp
// is non-nil when the loop itself is a blocking channel operation (range
// over a channel). Nested loops and function literals are excluded — each is
// checked as its own construct — and so is anything inside a select that has
// a default case (non-blocking) or a Done case (already cancellation-aware).
func checkLoopCancellation(pass *Pass, loopPos token.Pos, body *ast.BlockStmt, rangeOp ast.Node) {
	aware := false // the loop can observe cancellation somewhere in its body
	var blocking ast.Node
	if rangeOp != nil {
		blocking = rangeOp
	}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if aware {
			return false
		}
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			if selectIsCancellationAware(pass, n) {
				aware = true
				return false
			}
			if selectHasDefault(n) {
				// Non-blocking: its comm ops cannot stall the loop. Case
				// bodies still run inline, so keep walking those.
				for _, c := range n.Body.List {
					for _, s := range c.(*ast.CommClause).Body {
						ast.Inspect(s, walk)
					}
				}
				return false
			}
			if blocking == nil {
				blocking = n
			}
			return true // the comm ops and bodies are ordinary loop content
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if isDoneReceive(pass, n) {
					aware = true
					return false
				}
				if blocking == nil {
					blocking = n
				}
			}
		case *ast.SendStmt:
			if blocking == nil {
				blocking = n
			}
		}
		return true
	}
	ast.Inspect(body, walk)
	if blocking != nil && !aware {
		pass.Reportf(blocking.Pos(), "loop blocks on a channel operation with no ctx.Done() case in reach: cancellation cannot interrupt it (add a select on the context, or allow with the reason it cannot stall)")
	}
}

// selectHasDefault reports whether the select has a default clause.
func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if c.(*ast.CommClause).Comm == nil {
			return true
		}
	}
	return false
}

// selectIsCancellationAware reports whether one of the select's comm clauses
// receives from a context's Done channel.
func selectIsCancellationAware(pass *Pass, sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		comm := c.(*ast.CommClause).Comm
		var recv ast.Expr
		switch s := comm.(type) {
		case *ast.ExprStmt:
			recv = s.X
		case *ast.AssignStmt:
			if len(s.Rhs) == 1 {
				recv = s.Rhs[0]
			}
		}
		if u, ok := ast.Unparen(recv).(*ast.UnaryExpr); ok && u.Op == token.ARROW && isDoneReceive(pass, u) {
			return true
		}
	}
	return false
}

// isDoneReceive matches <-x.Done() where x is a context.Context.
func isDoneReceive(pass *Pass, recv *ast.UnaryExpr) bool {
	call, ok := ast.Unparen(recv.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	t := pass.TypesInfo.TypeOf(sel.X)
	return t != nil && isContextType(t)
}
