package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// A Package is one loaded, type-checked compilation unit ready for analysis.
type Package struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	// Errors holds parse/type-check problems. Analyzers are not run over
	// packages with errors; the driver surfaces them instead, like go vet.
	Errors []error
}

// listedPackage is the subset of `go list -json` output the loader consumes.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	ImportMap  map[string]string
	Incomplete bool
	Error      *struct{ Err string }
}

// Load lists the packages matching patterns (relative to dir, "" = cwd),
// compiles their dependencies' export data via the go command, and parses +
// type-checks every matched package from source. It needs no network and no
// module dependencies: type information for imports is read from the build
// cache's export files, exactly as `go vet` feeds its unitchecker.
//
// Test files are deliberately excluded: the suite's invariants protect
// production determinism and hot paths; tests are free to use wall clock,
// randomness and allocations.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	// Export data for every dependency, keyed by resolved package path.
	exports := make(map[string]string, len(listed))
	for _, lp := range listed {
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
	}

	fset := token.NewFileSet()
	var pkgs []*Package
	for _, lp := range listed {
		if lp.DepOnly || lp.Name == "" {
			continue
		}
		pkg := &Package{PkgPath: lp.ImportPath, Fset: fset}
		if lp.Error != nil {
			pkg.Errors = append(pkg.Errors, fmt.Errorf("%s: %s", lp.ImportPath, lp.Error.Err))
		}
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				pkg.Errors = append(pkg.Errors, err)
				continue
			}
			pkg.Files = append(pkg.Files, f)
		}
		if len(pkg.Errors) == 0 {
			imp := NewExportImporter(fset, exports, lp.ImportMap)
			pkg.Types, pkg.Info, pkg.Errors = TypeCheck(fset, lp.ImportPath, pkg.Files, imp)
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].PkgPath < pkgs[j].PkgPath })
	return pkgs, nil
}

// listCache memoizes goList output per (dir, patterns) for the life of the
// process. Every analyzer run over the same tree — the passes of one
// Check call, repeated fixture loads in the test binary — shares one
// `go list -export` invocation, by far the slowest step of a load.
var listCache sync.Map // string -> []listedPackage

// goList runs `go list -e -deps -export -json` over the patterns and decodes
// the package stream. Results are cached; see listCache. The module mode is
// forced to -mod=mod so a stray vendor/ directory or workspace default can
// not starve the loader of export data — unless GOFLAGS explicitly pins a
// -mod, which is honored (the command line would override GOFLAGS, so the
// flag is simply not passed then).
func goList(dir string, patterns []string) ([]listedPackage, error) {
	key := dir + "\x00" + strings.Join(patterns, "\x00")
	if cached, ok := listCache.Load(key); ok {
		return cached.([]listedPackage), nil
	}
	args := []string{"list", "-e", "-deps", "-export"}
	if !strings.Contains(os.Getenv("GOFLAGS"), "-mod=") {
		args = append(args, "-mod=mod")
	}
	args = append(args, "-json=ImportPath,Name,Dir,GoFiles,Export,DepOnly,ImportMap,Incomplete,Error")
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}
	var listed []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		listed = append(listed, lp)
	}
	listCache.Store(key, listed)
	return listed, nil
}

// NewExportImporter returns a types.Importer that reads gc export data files.
// exports maps resolved package paths to export data files; importMap (may be
// nil) first translates source-level import paths (vendoring etc.), matching
// the contract of go list's ImportMap and vet's Config.ImportMap.
func NewExportImporter(fset *token.FileSet, exports, importMap map[string]string) types.Importer {
	base := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return importerFunc(func(path string) (*types.Package, error) {
		if resolved, ok := importMap[path]; ok {
			path = resolved
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return base.Import(path)
	})
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// TypeCheck type-checks one package's parsed files, returning the package,
// full type info and any errors. Checking continues past errors so partial
// info is available, but callers should not analyze packages with errors.
func TypeCheck(fset *token.FileSet, pkgPath string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, []error) {
	var errs []error
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		Error:    func(err error) { errs = append(errs, err) },
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil && len(errs) == 0 {
		errs = append(errs, err)
	}
	return pkg, info, errs
}
