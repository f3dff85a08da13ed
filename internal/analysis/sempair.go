package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SempairAnalyzer proves the invariant behind eval's slot accounting: the
// worker-pool semaphore never oversubscribes and never loses capacity. It
// abstractly interprets every function (and function literal) over all
// control-flow paths — if/else, loops to a fixpoint, switch, select per comm
// clause, defer, break/continue/return — tracking the semaphore balance: a
// send on a channel whose name is semaphore-like ("sem", "semCh",
// "workerSem", ...) or a call to a method named Acquire acquires one slot;
// the matching receive or a Release call releases it. Every path to an exit
// must end with balance zero: a positive balance is a slot leaked (the pool
// shrinks forever), a negative one is an over-release (the pool
// oversubscribes). Functions using goto are skipped.
var SempairAnalyzer = &Analyzer{
	Name: "sempair",
	Doc:  "flags semaphore acquire/release imbalances on any control-flow path",
	Run:  runSempair,
}

const (
	// semMaxPending saturates the unmatched-acquire stack so loops that
	// acquire without releasing still reach a fixpoint.
	semMaxPending = 4
	// semMaxStates caps the abstract state set per scope; beyond it the
	// function is skipped rather than mis-reported.
	semMaxStates = 48
	// semMaxIters caps loop fixpoint rounds (paranoia; the state lattice is
	// finite, so this should never bind).
	semMaxIters = 64
)

func runSempair(pass *Pass) error {
	for _, f := range pass.Files {
		// A function literal that is immediately invoked or deferred runs in
		// its launcher's scope, so its effects count there; one launched by
		// go (and one stored or passed as a value) is its own scope.
		inline := map[*ast.FuncLit]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
					inline[lit] = false
				}
			case *ast.CallExpr:
				if lit, ok := n.Fun.(*ast.FuncLit); ok {
					if _, isGo := inline[lit]; !isGo {
						inline[lit] = true
					}
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					newSemInterp(pass, inline).checkScope(n.Body)
				}
			case *ast.FuncLit:
				if !inline[n] {
					newSemInterp(pass, inline).checkScope(n.Body)
				}
			}
			return true
		})
	}
	return nil
}

// --- abstract state ---------------------------------------------------------

// semState is one abstract execution state: the positions of semaphore
// acquires not yet released on this path.
type semState struct {
	acquires []token.Pos
}

func (st semState) key() string {
	var b strings.Builder
	for _, p := range st.acquires {
		fmt.Fprintf(&b, "a%d,", p)
	}
	return b.String()
}

func (st semState) withAcquire(pos token.Pos) semState {
	if len(st.acquires) >= semMaxPending {
		return st // saturate: the leak is already visible on shorter paths
	}
	next := make([]token.Pos, len(st.acquires)+1)
	copy(next, st.acquires)
	next[len(st.acquires)] = pos
	st.acquires = next
	return st
}

func (st semState) withRelease() semState {
	st.acquires = st.acquires[:len(st.acquires)-1]
	return st
}

// mergeStates unions two state sets, deduplicating by key.
func mergeStates(a, b []semState) []semState {
	if len(b) == 0 {
		return a
	}
	seen := make(map[string]bool, len(a)+len(b))
	out := make([]semState, 0, len(a)+len(b))
	for _, set := range [2][]semState{a, b} {
		for _, st := range set {
			if k := st.key(); !seen[k] {
				seen[k] = true
				out = append(out, st)
			}
		}
	}
	return out
}

// --- effects ----------------------------------------------------------------

type semOpKind int

const (
	opAcquire semOpKind = iota
	opRelease
)

type semOp struct {
	kind semOpKind
	pos  token.Pos
}

// semFlows accumulates the states that left the normal fall-through path.
// Branch states are keyed "break:<label>" / "continue:<label>" ("" for
// unlabeled) and consumed by the innermost construct they target.
type semFlows struct {
	returns  []semState
	branches map[string][]semState
}

func (fl *semFlows) branch(kind, label string, states []semState) {
	if fl.branches == nil {
		fl.branches = map[string][]semState{}
	}
	key := kind + ":" + label
	fl.branches[key] = append(fl.branches[key], states...)
}

// take removes and returns the states parked under kind for the empty label
// and, when non-empty, the given label.
func (fl *semFlows) take(kind, label string) []semState {
	out := mergeStates(nil, fl.branches[kind+":"])
	delete(fl.branches, kind+":")
	if label != "" {
		out = mergeStates(out, fl.branches[kind+":"+label])
		delete(fl.branches, kind+":"+label)
	}
	return out
}

// --- interpreter ------------------------------------------------------------

type semInterp struct {
	pass     *Pass
	inline   map[*ast.FuncLit]bool
	bail     bool
	reported map[token.Pos]bool
}

func newSemInterp(pass *Pass, inline map[*ast.FuncLit]bool) *semInterp {
	return &semInterp{pass: pass, inline: inline, reported: map[token.Pos]bool{}}
}

func (in *semInterp) reportOnce(pos token.Pos, format string, args ...any) {
	if !in.reported[pos] {
		in.reported[pos] = true
		in.pass.Reportf(pos, format, args...)
	}
}

// checkScope interprets one function body. Bodies without semaphore traffic
// (the overwhelming majority) are skipped after a single cheap scan.
func (in *semInterp) checkScope(body *ast.BlockStmt) {
	touches, hasGoto := in.scanScope(body)
	if !touches || hasGoto {
		return // goto-using functions are beyond this interpreter; none exist
	}
	var fl semFlows
	out := in.execStmt(body, []semState{{}}, &fl)
	if in.bail {
		return
	}
	for _, st := range mergeStates(out, fl.returns) {
		for _, pos := range st.acquires {
			in.reportOnce(pos, "semaphore slot acquired here is not released on every path to an exit: the pool loses capacity")
		}
	}
}

// scanScope reports whether the body (excluding nested function literals)
// contains any semaphore traffic, and whether it uses goto.
func (in *semInterp) scanScope(body *ast.BlockStmt) (touches, hasGoto bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return in.inline[n]
		case *ast.BranchStmt:
			if n.Tok == token.GOTO {
				hasGoto = true
			}
		case *ast.SendStmt:
			if in.isSemChan(n.Chan) {
				touches = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && in.isSemChan(n.X) {
				touches = true
			}
		case *ast.CallExpr:
			if _, ok := in.callOp(n); ok {
				touches = true
			}
		}
		return true
	})
	return touches, hasGoto
}

// isSemChan reports whether the expression is a channel whose terminal name
// marks it as a semaphore.
func (in *semInterp) isSemChan(e ast.Expr) bool {
	var name string
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		name = e.Name
	case *ast.SelectorExpr:
		name = e.Sel.Name
	default:
		return false
	}
	if !(name == "sem" || strings.HasPrefix(name, "sem") ||
		strings.HasSuffix(name, "Sem") || strings.HasSuffix(name, "Semaphore")) {
		return false
	}
	t := in.pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	_, isChan := t.Underlying().(*types.Chan)
	return isChan
}

// callOp classifies a call as an Acquire or Release method call, the two
// semaphore-shaped calls (a package-level function named Release is not a
// semaphore).
func (in *semInterp) callOp(call *ast.CallExpr) (semOpKind, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || in.pass.TypesInfo.Selections[sel] == nil {
		return 0, false
	}
	switch sel.Sel.Name {
	case "Acquire":
		return opAcquire, true
	case "Release":
		return opRelease, true
	}
	return 0, false
}

// nodeOps extracts the semaphore effects of one statement or expression in
// syntactic order, excluding nested function literals (each is its own
// scope) and go-statement bodies (the effects run on the new goroutine).
func (in *semInterp) nodeOps(n ast.Node) []semOp {
	var ops []semOp
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			// Inline (immediately-invoked or deferred) literals run here, so
			// their effects apply in this scope, linearized; others do not.
			return in.inline[x]
		case *ast.SendStmt:
			if in.isSemChan(x.Chan) {
				ops = append(ops, semOp{kind: opAcquire, pos: x.Arrow})
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && in.isSemChan(x.X) {
				ops = append(ops, semOp{kind: opRelease, pos: x.OpPos})
			}
		case *ast.CallExpr:
			if kind, ok := in.callOp(x); ok {
				ops = append(ops, semOp{kind: kind, pos: x.Pos()})
			}
		}
		return true
	})
	return ops
}

// applyOps threads one effect list through every state.
func (in *semInterp) applyOps(ops []semOp, states []semState) []semState {
	for _, op := range ops {
		out := states[:0:0]
		for _, st := range states {
			switch op.kind {
			case opAcquire:
				st = st.withAcquire(op.pos)
			case opRelease:
				if len(st.acquires) == 0 {
					in.reportOnce(op.pos, "semaphore released here without a matching acquire on this path: the pool oversubscribes")
				} else {
					st = st.withRelease()
				}
			}
			out = append(out, st)
		}
		states = mergeStates(nil, out)
	}
	return states
}

// applyNode applies a statement or expression's effects.
func (in *semInterp) applyNode(n ast.Node, states []semState) []semState {
	if n == nil {
		return states
	}
	return in.applyOps(in.nodeOps(n), states)
}

// isPanicCall matches a statement that unconditionally unwinds.
func (in *semInterp) isPanicCall(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// --- statement execution ----------------------------------------------------

func (in *semInterp) execBlock(list []ast.Stmt, states []semState, fl *semFlows) []semState {
	for _, s := range list {
		states = in.execStmt(s, states, fl)
		if in.bail {
			return nil
		}
	}
	return states
}

func (in *semInterp) execStmt(s ast.Stmt, states []semState, fl *semFlows) []semState {
	if in.bail || len(states) == 0 {
		return nil
	}
	if len(states) > semMaxStates {
		in.bail = true
		return nil
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		return in.execBlock(s.List, states, fl)
	case *ast.IfStmt:
		if s.Init != nil {
			states = in.execStmt(s.Init, states, fl)
		}
		states = in.applyNode(s.Cond, states)
		thenOut := in.execStmt(s.Body, states, fl)
		elseOut := states
		if s.Else != nil {
			elseOut = in.execStmt(s.Else, states, fl)
		}
		return mergeStates(thenOut, elseOut)
	case *ast.ForStmt:
		return in.execFor(s, states, fl, "")
	case *ast.RangeStmt:
		return in.execRange(s, states, fl, "")
	case *ast.LabeledStmt:
		switch inner := s.Stmt.(type) {
		case *ast.ForStmt:
			return in.execFor(inner, states, fl, s.Label.Name)
		case *ast.RangeStmt:
			return in.execRange(inner, states, fl, s.Label.Name)
		case *ast.SwitchStmt:
			return in.execSwitch(inner, states, fl, s.Label.Name)
		case *ast.TypeSwitchStmt:
			return in.execTypeSwitch(inner, states, fl, s.Label.Name)
		case *ast.SelectStmt:
			return in.execSelect(inner, states, fl, s.Label.Name)
		default:
			return in.execStmt(s.Stmt, states, fl)
		}
	case *ast.SwitchStmt:
		return in.execSwitch(s, states, fl, "")
	case *ast.TypeSwitchStmt:
		return in.execTypeSwitch(s, states, fl, "")
	case *ast.SelectStmt:
		return in.execSelect(s, states, fl, "")
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			states = in.applyNode(e, states)
		}
		fl.returns = append(fl.returns, states...)
		return nil
	case *ast.BranchStmt:
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			fl.branch("break", label, states)
		case token.CONTINUE:
			fl.branch("continue", label, states)
		case token.GOTO:
			in.bail = true
		case token.FALLTHROUGH:
			// Treated as end-of-case: the next case's body re-runs from the
			// switch entry state, a mild over-approximation.
		}
		return nil
	case *ast.GoStmt:
		// The body's effects run on the new goroutine (its literal is its
		// own scope); only the argument expressions evaluate here.
		for _, a := range s.Call.Args {
			states = in.applyNode(a, states)
		}
		return states
	case *ast.DeferStmt:
		// A deferred release runs at exit; for pairing purposes applying it
		// here is equivalent (the analyzer checks balance, not timing).
		return in.applyNode(s.Call, states)
	default:
		if in.isPanicCall(s) {
			in.applyNode(s, states) // argument effects still happen
			return nil              // then the path unwinds
		}
		return in.applyNode(s, states)
	}
}

func (in *semInterp) execFor(s *ast.ForStmt, states []semState, fl *semFlows, label string) []semState {
	if s.Init != nil {
		states = in.execStmt(s.Init, states, fl)
	}
	var exits []semState
	seen := map[string]bool{}
	work := states
	for iter := 0; len(work) > 0 && !in.bail; iter++ {
		if iter >= semMaxIters {
			in.bail = true
			return nil
		}
		var fresh []semState
		for _, st := range work {
			if k := st.key(); !seen[k] {
				seen[k] = true
				fresh = append(fresh, st)
			}
		}
		if len(fresh) == 0 {
			break
		}
		if s.Cond != nil {
			fresh = in.applyNode(s.Cond, fresh)
			// The condition can be false on loop entry or any iteration.
			exits = mergeStates(exits, fresh)
		}
		out := in.execStmt(s.Body, fresh, fl)
		cont := mergeStates(out, fl.take("continue", label))
		if s.Post != nil {
			cont = in.execStmt(s.Post, cont, fl)
		}
		exits = mergeStates(exits, fl.take("break", label))
		work = cont
	}
	return exits
}

func (in *semInterp) execRange(s *ast.RangeStmt, states []semState, fl *semFlows, label string) []semState {
	states = in.applyNode(s.X, states)
	exits := states // zero iterations
	seen := map[string]bool{}
	work := states
	for iter := 0; len(work) > 0 && !in.bail; iter++ {
		if iter >= semMaxIters {
			in.bail = true
			return nil
		}
		var fresh []semState
		for _, st := range work {
			if k := st.key(); !seen[k] {
				seen[k] = true
				fresh = append(fresh, st)
			}
		}
		if len(fresh) == 0 {
			break
		}
		out := in.execStmt(s.Body, fresh, fl)
		cont := mergeStates(out, fl.take("continue", label))
		exits = mergeStates(exits, cont) // the range can end after any iteration
		exits = mergeStates(exits, fl.take("break", label))
		work = cont
	}
	return exits
}

func (in *semInterp) execSwitch(s *ast.SwitchStmt, states []semState, fl *semFlows, label string) []semState {
	if s.Init != nil {
		states = in.execStmt(s.Init, states, fl)
	}
	if s.Tag != nil {
		states = in.applyNode(s.Tag, states)
	}
	var out []semState
	hasDefault := false
	for _, c := range s.Body.List {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		st := states
		for _, e := range cc.List {
			st = in.applyNode(e, st)
		}
		out = mergeStates(out, in.execBlock(cc.Body, st, fl))
	}
	if !hasDefault {
		out = mergeStates(out, states) // no case matched
	}
	return mergeStates(out, fl.take("break", label))
}

func (in *semInterp) execTypeSwitch(s *ast.TypeSwitchStmt, states []semState, fl *semFlows, label string) []semState {
	if s.Init != nil {
		states = in.execStmt(s.Init, states, fl)
	}
	states = in.execStmt(s.Assign, states, fl)
	var out []semState
	hasDefault := false
	for _, c := range s.Body.List {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		out = mergeStates(out, in.execBlock(cc.Body, states, fl))
	}
	if !hasDefault {
		out = mergeStates(out, states)
	}
	return mergeStates(out, fl.take("break", label))
}

func (in *semInterp) execSelect(s *ast.SelectStmt, states []semState, fl *semFlows, label string) []semState {
	if len(s.Body.List) == 0 {
		return nil // empty select blocks forever
	}
	var out []semState
	for _, c := range s.Body.List {
		cc := c.(*ast.CommClause)
		st := states
		if cc.Comm != nil {
			st = in.execStmt(cc.Comm, st, fl)
		}
		out = mergeStates(out, in.execBlock(cc.Body, st, fl))
	}
	return mergeStates(out, fl.take("break", label))
}
