package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	// Path is the import path ("wls", "wls/internal/store", ...).
	Path string
	// Module is the module path of the loader that produced the package;
	// analyzers use it to tell module-internal callees (which carry
	// facts) from external ones.
	Module string
	// Dir is the absolute directory the sources came from.
	Dir  string
	Fset *token.FileSet
	// Files are the parsed non-test sources, sorted by filename. Test
	// files are deliberately excluded: the determinism rules govern
	// production code, while tests drive the virtual clock directly.
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of one module using only the Go
// standard library: module-internal imports resolve against the module
// tree, everything else goes through the source importer.
type Loader struct {
	Root   string // absolute module root (directory containing go.mod)
	Module string // module path from go.mod
	Fset   *token.FileSet

	std     types.Importer
	checked map[string]*Package
	loading map[string]bool
}

// NewLoader builds a loader for the module rooted at root.
func NewLoader(root string) (*Loader, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	// The source importer type-checks std from GOROOT sources; with cgo
	// disabled it picks the pure-Go variants of net & friends, which is
	// all the type information the analyzers need.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		Root:    root,
		Module:  mod,
		Fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		checked: map[string]*Package{},
		loading: map[string]bool{},
	}, nil
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
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
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}

// LoadAll loads every package under the module root (skipping testdata and
// hidden directories), in a deterministic order.
func (l *Loader) LoadAll() ([]*Package, error) {
	var paths []string
	err := filepath.WalkDir(l.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.Root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		if hasGoSources(path) {
			rel, err := filepath.Rel(l.Root, path)
			if err != nil {
				return err
			}
			if rel == "." {
				paths = append(paths, l.Module)
			} else {
				paths = append(paths, l.Module+"/"+filepath.ToSlash(rel))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	pkgs := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := l.Load(p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func hasGoSources(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// Load parses and type-checks the module package with the given import
// path (cached).
func (l *Loader) Load(path string) (*Package, error) {
	if pkg, ok := l.checked[path]; ok {
		return pkg, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")
	dir := filepath.Join(l.Root, filepath.FromSlash(rel))
	return l.loadDir(dir, path)
}

func (l *Loader) loadDir(dir, path string) (*Package, error) {
	if pkg, ok := l.checked[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no buildable Go sources", dir)
	}
	sort.Slice(files, func(i, j int) bool {
		return l.Fset.Position(files[i].Pos()).Filename < l.Fset.Position(files[j].Pos()).Filename
	})

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %v (and %d more)", path, typeErrs[0], len(typeErrs)-1)
	}
	pkg := &Package{Path: path, Module: l.Module, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.checked[path] = pkg
	return pkg, nil
}

// loaderImporter adapts Loader to types.Importer: module-internal import
// paths resolve recursively through the loader, the rest through the
// stdlib source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}
