// Package load type-checks Go packages for the vetvec analyzers without
// depending on golang.org/x/tools. Dependency type information comes
// from compiler export data: one `go list -export -deps -json` run
// resolves every import (standard library and module-internal alike) to
// an export file in the build cache, and go/importer's gc reader loads
// those on demand. Only the packages under analysis are parsed and
// type-checked from source, so a whole-tree run stays fast and works
// with no network and no GOPATH.
package load

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
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPkg is the subset of `go list -json` output the loader uses.
type listedPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Error      *struct{ Err string }
}

// Loader resolves imports via export data rooted at one module.
type Loader struct {
	ModRoot string

	fset *token.FileSet
	imp  types.ImporterFrom

	mu      sync.Mutex
	exports map[string]string // import path -> export data file

	modPkgs []string                  // the module's own packages
	local   map[string]*types.Package // fixture packages loaded by Dir
}

// NewLoader builds a loader for the module containing dir. It runs
// `go list -export -deps -json ./...` once to map every dependency to
// its export data.
func NewLoader(dir string) (*Loader, error) {
	root, err := moduleRoot(dir)
	if err != nil {
		return nil, err
	}
	l := &Loader{ModRoot: root, fset: token.NewFileSet(), exports: make(map[string]string)}
	pkgs, err := l.goList("-export", "-deps", "./...")
	if err != nil {
		return nil, err
	}
	for _, p := range pkgs {
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			l.modPkgs = append(l.modPkgs, p.ImportPath)
		}
	}
	l.local = make(map[string]*types.Package)
	l.imp = localFirst{l.local, importer.ForCompiler(l.fset, "gc", l.lookup).(types.ImporterFrom)}
	return l, nil
}

// localFirst resolves imports of packages Dir already loaded from
// source, so one fixture package can import another, and hands every
// other path to the export-data importer.
type localFirst struct {
	local map[string]*types.Package
	next  types.ImporterFrom
}

func (i localFirst) Import(path string) (*types.Package, error) {
	return i.ImportFrom(path, "", 0)
}

func (i localFirst) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := i.local[path]; ok {
		return p, nil
	}
	return i.next.ImportFrom(path, dir, mode)
}

// Covers reports whether pkgs include every package of the module: the
// condition for a whole-module question such as "does anything outside
// a test call this".
func (l *Loader) Covers(pkgs []*Package) bool {
	have := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		have[p.Path] = true
	}
	for _, path := range l.modPkgs {
		if !have[path] {
			return false
		}
	}
	return true
}

// SiblingSelectors returns SelectorNames over the modules nested under
// the module root: directories with their own go.mod, such as
// benchmark/, which ./... does not reach.
func (l *Loader) SiblingSelectors() (map[string]bool, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == l.ModRoot {
			return err
		}
		if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
			dirs = append(dirs, path)
			return filepath.SkipDir
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return SelectorNames(dirs...)
}

// SelectorNames parses every Go file under dirs, tests included, and
// returns the name selected by every x.Name expression. The files are
// not type-checked, so a name stands for every function that has it.
func SelectorNames(dirs ...string) (map[string]bool, error) {
	names := make(map[string]bool)
	fset := token.NewFileSet()
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					names[sel.Sel.Name] = true
				}
				return true
			})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return names, nil
}

// Fset returns the loader's shared file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

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
			return "", fmt.Errorf("load: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// goList runs `go list -json args...` in the module root.
func (l *Loader) goList(args ...string) ([]listedPkg, error) {
	cmd := exec.Command("go", append([]string{"list", "-json"}, args...)...)
	cmd.Dir = l.ModRoot
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("load: go list %s: %v\n%s", strings.Join(args, " "), err, errb.String())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(&out)
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("load: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// lookup feeds export data to the gc importer, filling cache misses
// with a targeted `go list -export` run.
func (l *Loader) lookup(path string) (io.ReadCloser, error) {
	l.mu.Lock()
	file, ok := l.exports[path]
	l.mu.Unlock()
	if !ok {
		pkgs, err := l.goList("-export", "--", path)
		if err != nil {
			return nil, fmt.Errorf("load: no export data for %q: %v", path, err)
		}
		for _, p := range pkgs {
			if p.ImportPath == path && p.Export != "" {
				file = p.Export
			}
		}
		if file == "" {
			return nil, fmt.Errorf("load: no export data for %q", path)
		}
		l.mu.Lock()
		l.exports[path] = file
		l.mu.Unlock()
	}
	return os.Open(file)
}

// Patterns loads the packages matched by go-list patterns (e.g. ./...),
// sorted by import path. Test files are excluded: the analyzers guard
// production invariants, and fixtures with deliberate violations live
// in testdata where go list never looks.
//
// Packages are type-checked in parallel. The shared FileSet and the
// export-data map are safe for concurrent use, but the gc importer's
// internal package cache is not, so each worker gets its own importer
// instance (they still share the export lookup, so each export file is
// still located only once).
func (l *Loader) Patterns(patterns ...string) ([]*Package, error) {
	pkgs, err := l.goList(append([]string{"--"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	var todo []listedPkg
	for _, p := range pkgs {
		if p.DepOnly {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("load: %s: %s", p.ImportPath, p.Error.Err)
		}
		todo = append(todo, p)
	}

	out := make([]*Package, len(todo))
	errs := make([]error, len(todo))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(todo) {
		workers = len(todo)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			imp := importer.ForCompiler(l.fset, "gc", l.lookup).(types.ImporterFrom)
			for i := range next {
				p := todo[i]
				files := make([]string, len(p.GoFiles))
				for j, f := range p.GoFiles {
					files[j] = filepath.Join(p.Dir, f)
				}
				out[i], errs[i] = l.checkWith(imp, p.ImportPath, p.Dir, files)
			}
		}()
	}
	for i := range todo {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// Dir loads one directory of Go files as a package with a synthetic
// import path — the entry point for analysistest fixtures, which live
// under testdata and are invisible to go list. Later Dir loads may
// import it by that path.
func (l *Loader) Dir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("load: no Go files in %s", dir)
	}
	sort.Strings(files)
	pkg, err := l.check(importPath, dir, files)
	if err != nil {
		return nil, err
	}
	l.local[importPath] = pkg.Types
	return pkg, nil
}

// check parses and type-checks one package from source with the
// loader's shared importer (single-threaded entry points only).
func (l *Loader) check(importPath, dir string, filenames []string) (*Package, error) {
	return l.checkWith(l.imp, importPath, dir, filenames)
}

// checkWith parses and type-checks one package from source using the
// given importer, so parallel callers can keep importer state private.
func (l *Loader) checkWith(imp types.ImporterFrom, importPath, dir string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("load: type-checking %s: %v", importPath, typeErrs[0])
	}
	if err != nil {
		return nil, fmt.Errorf("load: type-checking %s: %v", importPath, err)
	}
	return &Package{Path: importPath, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}
