// Package analysis is the repo-invariant lint suite: a small, dependency-free
// analogue of golang.org/x/tools/go/analysis (which this module cannot vendor)
// plus five custom passes that turn the project's runtime-tested invariants
// into compile-time checks:
//
//   - determinism: byte-identical experiment output at any parallelism level
//     (no order-sensitive map iteration, no wall-clock or math/rand in
//     measured code);
//   - ctxflow: mid-compile cancellation (entry points must consume their
//     context.Context and never restart the chain with context.Background);
//   - hotalloc: the allocation-free compile hot path (functions annotated
//     //mussti:hotpath must not allocate in steady state);
//   - wirecompat: the versioned internal/dist wire format (no map fields,
//     keyed literals only, schema changes force a checksum + version bump);
//   - leakcheck: goroutines in internal/{core,eval,dist} must carry a
//     completion signal, and channel loops must select on ctx.Done.
//
// Semaphore pairing needs no pass: the only slot type (internal/pool) holds
// a slot for one function call and releases it in a defer.
//
// On top of the AST passes sits a compiler-feedback tier (compilerfacts.go,
// perfbudget.go): one `go build` with escape-analysis, inlining and
// bounds-check diagnostics enabled is parsed into typed facts and checked
// against the committed perfbudget.json — //mussti:hotpath functions may
// not gain heap escapes or bounds checks, //mussti:inline leaf helpers must
// remain inlinable, and any drift fails `musstilint -budget` with a
// per-function diff (`musstilint -writebudget` regenerates).
//
// The framework mirrors go/analysis deliberately — Analyzer structs with a
// Run(*Pass) hook, per-package Pass state, position-based diagnostics — so
// the passes could move onto the real framework unchanged if the dependency
// ever becomes available. cmd/musstilint is the driver: standalone over
// package patterns, or unit-at-a-time under `go vet -vettool`.
//
// # Directives
//
// Source annotates itself with //mussti: comments:
//
//	//mussti:hotpath                  (function doc) hotalloc + perfbudget check this function
//	//mussti:inline                   (function doc) perfbudget requires this function inlinable
//	//mussti:wire                     (type doc) struct is part of the wire format
//	//mussti:allow=<analyzer> reason  suppress one analyzer on this line and the next
//
// An allow directive in a file's header comments (before the package clause)
// suppresses the analyzer for the whole file. Suppressions are expected to
// carry a reason; they are the documented escape hatch that keeps the
// repo-wide self-check (zero diagnostics on mussti/...) honest.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one lint pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow directives.
	Name string
	// Doc is a one-paragraph description of what the pass enforces.
	Doc string
	// Run executes the pass over one package, reporting findings via
	// pass.Report / pass.Reportf.
	Run func(pass *Pass) error
}

// A Pass is the input to one analyzer over one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one diagnostic. The checker installs it; analyzers
	// must not call it after Run returns.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, positioned within the Pass's Fset.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// All returns the suite's analyzers in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		CtxflowAnalyzer,
		HotallocAnalyzer,
		WirecompatAnalyzer,
		LeakcheckAnalyzer,
	}
}

// directivePrefix introduces every source annotation the suite understands.
const directivePrefix = "//mussti:"

// directive is one parsed //mussti: comment.
type directive struct {
	pos  token.Pos
	verb string // "hotpath", "inline", "wire", "allow"
	arg  string // analyzer name for allow
}

// parseDirective parses a single comment line; ok is false for ordinary
// comments.
func parseDirective(c *ast.Comment) (directive, bool) {
	text := strings.TrimSpace(c.Text)
	if !strings.HasPrefix(text, directivePrefix) {
		return directive{}, false
	}
	rest := strings.TrimPrefix(text, directivePrefix)
	// The verb ends at the first space (the remainder is the human reason).
	verb, _, _ := strings.Cut(rest, " ")
	d := directive{pos: c.Pos(), verb: verb}
	if name, ok := strings.CutPrefix(verb, "allow="); ok {
		d.verb = "allow"
		d.arg = name
	}
	return d, true
}

// hasDirective reports whether the doc comment carries the given bare verb
// (e.g. "hotpath" or "wire").
func hasDirective(doc *ast.CommentGroup, verb string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if d, ok := parseDirective(c); ok && d.verb == verb {
			return true
		}
	}
	return false
}

// suppressions indexes the allow directives of one file.
type suppressions struct {
	// fileWide holds analyzer names allowed for the entire file.
	fileWide map[string]bool
	// byLine maps source line -> analyzer names allowed on that line.
	byLine map[int]map[string]bool
}

// collectSuppressions scans a file's comments for allow directives. A
// directive before the package clause applies file-wide; any other applies
// to its own line and the line below (so it can trail the flagged code or
// sit on its own line above it).
func collectSuppressions(fset *token.FileSet, f *ast.File) suppressions {
	s := suppressions{fileWide: map[string]bool{}, byLine: map[int]map[string]bool{}}
	pkgLine := fset.Position(f.Package).Line
	for _, g := range f.Comments {
		for _, c := range g.List {
			d, ok := parseDirective(c)
			if !ok || d.verb != "allow" || d.arg == "" {
				continue
			}
			line := fset.Position(d.pos).Line
			if line < pkgLine {
				s.fileWide[d.arg] = true
				continue
			}
			for _, l := range [2]int{line, line + 1} {
				if s.byLine[l] == nil {
					s.byLine[l] = map[string]bool{}
				}
				s.byLine[l][d.arg] = true
			}
		}
	}
	return s
}

// allows reports whether the analyzer is suppressed at the given line.
func (s suppressions) allows(analyzer string, line int) bool {
	return s.fileWide[analyzer] || s.byLine[line][analyzer]
}
