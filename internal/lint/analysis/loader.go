package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
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

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	Path   string
	Dir    string
	Fset   *token.FileSet
	Syntax []*ast.File
	Types  *types.Package
	Info   *types.Info
	Errors []error
}

// Loader parses and type-checks packages without golang.org/x/tools:
// package metadata comes from `go list -deps -json` (which resolves
// build constraints and returns dependencies before dependents), and
// type checking uses go/types with an importer backed by the loader's
// own cache. An optional testdata source root lets analyzer tests
// resolve fixture packages that live outside the module.
type Loader struct {
	Fset *token.FileSet
	// ModDir is the directory `go list` runs in (the module root).
	ModDir string
	// TestdataSrc, when set, resolves import path P from
	// TestdataSrc/P before falling back to the standard library.
	TestdataSrc string

	typeCache map[string]*types.Package
}

// NewLoader returns a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	root, err := moduleRoot(dir)
	if err != nil {
		return nil, err
	}
	return &Loader{
		Fset:      token.NewFileSet(),
		ModDir:    root,
		typeCache: map[string]*types.Package{},
	}, nil
}

// moduleRoot walks up from dir to the directory holding go.mod.
func moduleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// listedPackage mirrors the subset of `go list -json` output we need.
type listedPackage struct {
	ImportPath string
	Dir        string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
}

// listCache memoizes decoded `go list -deps -json` output per
// (module dir, patterns) for the life of the process: the subprocess
// dominates loader start-up (~0.4s for ./... on this module), and every
// analysistest loader in one test binary asks for the same standard-
// library packages. Entries are read-only; the tree is assumed to be a
// snapshot for the life of the process.
var listCache sync.Map

// goList runs `go list -deps -json` for the patterns and returns the
// packages in dependency order (dependencies before dependents).
// Results are memoized process-wide; see listCache.
func (l *Loader) goList(patterns ...string) ([]*listedPackage, error) {
	key := l.ModDir + "\x00" + strings.Join(patterns, "\x00")
	if cached, ok := listCache.Load(key); ok {
		return cached.([]*listedPackage), nil
	}
	listed, err := l.goListUncached(patterns...)
	if err != nil {
		return nil, err
	}
	listCache.Store(key, listed)
	return listed, nil
}

func (l *Loader) goListUncached(patterns ...string) ([]*listedPackage, error) {
	args := append([]string{"list", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.ModDir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var out []*listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		out = append(out, &p)
	}
	return out, nil
}

// Load type-checks the packages matching the patterns (plus their
// dependencies) and returns the matched packages sorted by import path.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	listed, err := l.goList(patterns...)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, meta := range listed {
		pkg, err := l.checkListed(meta)
		if err != nil {
			return nil, err
		}
		if !meta.DepOnly && pkg != nil {
			out = append(out, pkg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// checkListed parses and type-checks one `go list` entry, memoizing the
// resulting *types.Package for later imports.
func (l *Loader) checkListed(meta *listedPackage) (*Package, error) {
	if meta.ImportPath == "unsafe" {
		l.typeCache["unsafe"] = types.Unsafe
		return nil, nil
	}
	if _, done := l.typeCache[meta.ImportPath]; done {
		return nil, nil
	}
	files := make([]string, len(meta.GoFiles))
	for i, f := range meta.GoFiles {
		files[i] = filepath.Join(meta.Dir, f)
	}
	pkg, err := l.check(meta.ImportPath, meta.Dir, files, meta.Standard)
	if err != nil {
		return nil, err
	}
	return pkg, nil
}

// check parses the named files, type-checks them as import path and
// memoizes the result for later imports. Type errors in
// standard-library packages are tolerated (go/types cannot fully check
// a handful of runtime internals from source); for any other package
// they are fatal.
func (l *Loader) check(path, dir string, filenames []string, standard bool) (*Package, error) {
	pkg, err := l.checkSources(path, dir, filenames, nil, standard)
	if err == nil {
		l.typeCache[path] = pkg.Types
	}
	return pkg, err
}

// CheckFiles type-checks the named files as the package at the given
// import path, resolving imports the same way LoadDir does; a file
// named in sources is read from there instead of from disk. The result
// is not memoized, so the planted-mutation test can lint an edited
// copy of a real package without touching the tree or what later
// imports of that path resolve to.
func (l *Loader) CheckFiles(path string, filenames []string, sources map[string][]byte) (*Package, error) {
	return l.checkSources(path, "", filenames, sources, false)
}

// checkSources is the core of check/CheckFiles.
func (l *Loader) checkSources(path, dir string, filenames []string, sources map[string][]byte, standard bool) (*Package, error) {
	var syntax []*ast.File
	for _, fn := range filenames {
		var src any
		if content, ok := sources[fn]; ok {
			src = content
		}
		f, err := parser.ParseFile(l.Fset, fn, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %v", fn, err)
		}
		syntax = append(syntax, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		Sizes:       types.SizesFor("gc", runtime.GOARCH),
		Error:       func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, syntax, info)
	if len(typeErrs) > 0 && !standard {
		return nil, fmt.Errorf("lint: type-checking %s: %v", path, typeErrs[0])
	}
	return &Package{
		Path:   path,
		Dir:    dir,
		Fset:   l.Fset,
		Syntax: syntax,
		Types:  tpkg,
		Info:   info,
		Errors: typeErrs,
	}, nil
}

// Import implements types.Importer against the loader's cache, loading
// testdata fixture packages and standard-library packages on demand.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.typeCache[path]; ok {
		return pkg, nil
	}
	if l.TestdataSrc != "" {
		dir := filepath.Join(l.TestdataSrc, filepath.FromSlash(path))
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			if _, err := l.LoadDir(dir, path); err != nil {
				return nil, err
			}
			return l.typeCache[path], nil
		}
	}
	if err := l.loadStd(path); err != nil {
		return nil, err
	}
	if pkg, ok := l.typeCache[path]; ok {
		return pkg, nil
	}
	return nil, fmt.Errorf("lint: cannot resolve import %q", path)
}

// loadStd loads a standard-library package (and its dependencies) into
// the cache via go list; it relies on the toolchain's GOROOT sources,
// so it works offline.
func (l *Loader) loadStd(path string) error {
	listed, err := l.goList(path)
	if err != nil {
		return err
	}
	for _, meta := range listed {
		if _, err := l.checkListed(meta); err != nil {
			return err
		}
	}
	return nil
}

// LoadDir parses and type-checks every .go file in dir as the package
// with the given import path. Used by the analysistest harness, whose
// fixture packages live under testdata (invisible to go list).
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no .go files in %s", dir)
	}
	return l.check(path, dir, files, false)
}
