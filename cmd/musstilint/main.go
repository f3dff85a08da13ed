// Command musstilint runs the repo-invariant lint suite (internal/analysis):
// determinism, ctxflow, hotalloc, wirecompat and leakcheck.
//
// Standalone, over package patterns:
//
//	go run ./cmd/musstilint ./...
//
// It exits 0 when the tree is clean, 1 when any diagnostic fires, 2 on load
// failure. With -list it prints the analyzers and their one-line docs.
//
// The compiler-feedback perf budget is a separate gate:
//
//	go run ./cmd/musstilint -budget       # diff the tree against perfbudget.json
//	go run ./cmd/musstilint -writebudget  # regenerate perfbudget.json
//
// -budget rebuilds the module with escape/inline/bounds diagnostics enabled,
// folds them onto every //mussti:hotpath and //mussti:inline function, and
// fails with a per-function diff when the committed perfbudget.json no
// longer matches. -writebudget commits the current verdicts, refusing if an
// //mussti:inline function is no longer inlinable.
//
// The command also speaks the `go vet -vettool` protocol (-V=full, -flags,
// and a *.cfg compilation-unit file), so the same binary plugs into the
// standard vet driver:
//
//	go build -o /tmp/musstilint ./cmd/musstilint
//	go vet -vettool=/tmp/musstilint ./...
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"mussti/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("musstilint", flag.ExitOnError)
	list := fs.Bool("list", false, "list analyzers and exit")
	budget := fs.Bool("budget", false, "check the compiler-feedback perf budget against perfbudget.json")
	writeBudget := fs.Bool("writebudget", false, "regenerate perfbudget.json from the current tree")
	version := fs.String("V", "", "print version and exit (go vet protocol; use -V=full)")
	flagsJSON := fs.Bool("flags", false, "describe flags in JSON (go vet protocol)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: musstilint [packages]   (or: -budget | -writebudget; under go vet: -V=full | -flags | unit.cfg)\n")
		fs.PrintDefaults()
	}
	fs.Parse(args)

	switch {
	case *version != "":
		return printVersion(*version)
	case *flagsJSON:
		// None of the suite's analyzers takes flags; report an empty list.
		fmt.Println("[]")
		return 0
	case *list:
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	case *budget || *writeBudget:
		return runBudget(*writeBudget)
	}

	rest := fs.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return runVetUnit(rest[0])
	}
	if len(rest) == 0 {
		rest = []string{"./..."}
	}
	return runStandalone(rest)
}

// runStandalone loads packages from source via the go command and checks
// them all in-process.
func runStandalone(patterns []string) int {
	pkgs, err := analysis.Load("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	broken := false
	for _, pkg := range pkgs {
		for _, e := range pkg.Errors {
			fmt.Fprintf(os.Stderr, "musstilint: %s: %v\n", pkg.PkgPath, e)
			broken = true
		}
	}
	if broken {
		return 2
	}
	findings, err := analysis.Check(pkgs, analysis.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// runBudget implements -budget and -writebudget: collect compiler facts
// over the whole module, fold them onto the annotated functions, and either
// diff against the committed perfbudget.json or regenerate it.
func runBudget(write bool) int {
	modroot, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "musstilint:", err)
		return 2
	}
	pkgs, err := analysis.Load(modroot, "./...")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	for _, pkg := range pkgs {
		for _, e := range pkg.Errors {
			fmt.Fprintf(os.Stderr, "musstilint: %s: %v\n", pkg.PkgPath, e)
			return 2
		}
	}
	facts, err := analysis.CollectCompilerFacts(modroot)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	res, err := analysis.ComputeBudget(modroot, pkgs, facts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	path := filepath.Join(modroot, analysis.BudgetFile)
	if write {
		if regress := res.InlineRegressions(); len(regress) > 0 {
			fmt.Fprintf(os.Stderr, "musstilint: refusing to write %s: //mussti:inline functions are not inlinable\n", analysis.BudgetFile)
			for _, d := range regress {
				fmt.Fprintf(os.Stderr, "\t%s: %s\n", d.Key, d.Message)
			}
			return 1
		}
		if err := analysis.WriteBudgetFile(path, res.Budget); err != nil {
			fmt.Fprintln(os.Stderr, "musstilint:", err)
			return 2
		}
		fmt.Printf("musstilint: wrote %s: %d functions budgeted (%s %s)\n",
			analysis.BudgetFile, len(res.Budget.Functions), res.Budget.Go, res.Budget.GOARCH)
		return 0
	}
	committed, err := analysis.ReadBudgetFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "musstilint: %v\n\trun `go run ./cmd/musstilint -writebudget` to create %s\n", err, analysis.BudgetFile)
		return 1
	}
	drifts := analysis.CheckBudget(committed, res)
	if len(drifts) == 0 {
		fmt.Printf("musstilint: perf budget holds: %d functions match %s\n", len(res.Budget.Functions), analysis.BudgetFile)
		return 0
	}
	if committed.Go != res.Budget.Go || committed.GOARCH != res.Budget.GOARCH {
		fmt.Fprintf(os.Stderr, "musstilint: note: budget written by %s/%s, checking with %s/%s — verdicts can differ across toolchains\n",
			committed.Go, committed.GOARCH, res.Budget.Go, res.Budget.GOARCH)
	}
	for _, d := range drifts {
		fmt.Fprintf(os.Stderr, "musstilint: budget drift: %s\n", d)
	}
	fmt.Fprintf(os.Stderr, "musstilint: %d budget drift(s); if intentional, run `go run ./cmd/musstilint -writebudget` and commit %s\n",
		len(drifts), analysis.BudgetFile)
	return 1
}

// moduleRoot locates the enclosing module via `go env GOMOD`.
func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("not inside a module (go env GOMOD is empty)")
	}
	return filepath.Dir(gomod), nil
}

// vetConfig is the JSON compilation-unit description `go vet` hands a
// vettool (the unitchecker protocol).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ModulePath                string
	ModuleVersion             string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runVetUnit analyzes the single compilation unit described by cfgFile.
// Type information for imports comes from cfg.PackageFile, exactly as the
// build system compiled it. The suite uses no cross-package facts, so the
// vetx output is an empty placeholder (the file must exist for the go
// command's caching).
func runVetUnit(cfgFile string) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "musstilint:", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "musstilint: parsing %s: %v\n", cfgFile, err)
		return 2
	}
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "musstilint:", err)
			return 2
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	// The suite checks production code only — tests range over map-keyed
	// cases and time things freely. go vet hands us test variants of each
	// package too; dropping _test.go files makes vet mode agree with the
	// standalone loader (and leaves external test units empty, hence clean).
	files := cfg.GoFiles[:0]
	for _, name := range cfg.GoFiles {
		if !strings.HasSuffix(name, "_test.go") {
			files = append(files, name)
		}
	}
	if len(files) == 0 {
		return 0
	}

	fset := token.NewFileSet()
	pkg := &analysis.Package{PkgPath: cfg.ImportPath, Fset: fset}
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintln(os.Stderr, "musstilint:", err)
			return 2
		}
		pkg.Files = append(pkg.Files, f)
	}
	imp := analysis.NewExportImporter(fset, cfg.PackageFile, cfg.ImportMap)
	var errs []error
	pkg.Types, pkg.Info, errs = analysis.TypeCheck(fset, cfg.ImportPath, pkg.Files, imp)
	if len(errs) > 0 {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "musstilint:", e)
		}
		return 2
	}
	findings, err := analysis.Check([]*analysis.Package{pkg}, analysis.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// printVersion implements -V=full: the go command caches vet results keyed
// by this line, so it must change whenever the tool's behavior does — the
// executable's own hash guarantees that.
func printVersion(mode string) int {
	if mode != "full" {
		fmt.Fprintf(os.Stderr, "musstilint: unsupported flag value: -V=%s (use -V=full)\n", mode)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "musstilint:", err)
		return 2
	}
	f, err := os.Open(exe)
	if err != nil {
		fmt.Fprintln(os.Stderr, "musstilint:", err)
		return 2
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Fprintln(os.Stderr, "musstilint:", err)
		return 2
	}
	fmt.Printf("musstilint version devel buildID=%x\n", h.Sum(nil))
	return 0
}
