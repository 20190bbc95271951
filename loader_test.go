package sov

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// modPackage is one type-checked non-test package of the module.
type modPackage struct {
	// Fset is the shared file set (positions for every package).
	Fset *token.FileSet
	// Files holds the parsed non-test files, sorted by file name.
	Files []*ast.File
	// Types and Info are the go/types results.
	Types *types.Package
	Info  *types.Info
}

// modLoader parses and type-checks the packages of a single module without
// shelling out to the go command, for the structure tests (reachability,
// guards). Stdlib imports are resolved from GOROOT source; module-internal
// imports are resolved by walking the module tree.
type modLoader struct {
	// ModRoot is the absolute path of the directory containing go.mod.
	ModRoot string
	// ModPath is the module path declared in go.mod.
	ModPath string

	pkgs map[string]*modPackage // by import path
	// loading guards against import cycles (impossible in valid Go, but a
	// clear error beats a stack overflow on a broken tree).
	loading map[string]bool
}

// The stdlib is type-checked from GOROOT source once per test binary and
// shared by every loader: the source importer caches packages by import
// path, so the second structure test resolves `time`, `sync`, `fmt` & co.
// from cache. The importer is not safe for concurrent use; the tests that
// load the module do not run in parallel.
var (
	sharedFset  = token.NewFileSet()
	stdImporter = sync.OnceValue(func() types.Importer {
		return importer.ForCompiler(sharedFset, "source", nil)
	})
)

// newModLoader returns a loader for the module rooted at modRoot (the
// directory containing go.mod).
func newModLoader(modRoot string) (*modLoader, error) {
	modRoot, err := filepath.Abs(modRoot)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(modRoot, "go.mod"))
	if err != nil {
		return nil, err
	}
	return &modLoader{
		ModRoot: modRoot,
		ModPath: modPath,
		pkgs:    make(map[string]*modPackage),
		loading: make(map[string]bool),
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			p = strings.Trim(p, `"`)
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("no module directive in %s", gomod)
}

// LoadAll discovers every package directory under the module root
// (skipping testdata, vendor, hidden and underscore directories) and
// type-checks each. The result is sorted by import path.
func (l *modLoader) LoadAll() ([]*modPackage, error) {
	var out []*modPackage
	err := filepath.WalkDir(l.ModRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModRoot && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ip := l.ModPath
		if rel, _ := filepath.Rel(l.ModRoot, path); rel != "." {
			ip += "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.load(ip, path)
		if pkg != nil {
			out = append(out, pkg)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Types.Path() < out[j].Types.Path() })
	return out, nil
}

// load parses and type-checks one package, memoized by import path. A
// directory without non-test Go files yields nil.
func (l *modLoader) load(importPath, dir string) (*modPackage, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(sharedFset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: importerFunc(l.importPackage)}
	tpkg, err := conf.Check(importPath, sharedFset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", importPath, err)
	}
	pkg := &modPackage{Fset: sharedFset, Files: files, Types: tpkg, Info: info}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// importPackage resolves one import during type checking: module-internal
// paths recurse into the loader, everything else goes to the GOROOT source
// importer.
func (l *modLoader) importPackage(path string) (*types.Package, error) {
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
		dir := filepath.Join(l.ModRoot, filepath.FromSlash(rel))
		pkg, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("no Go files in %s", dir)
		}
		return pkg.Types, nil
	}
	return stdImporter().Import(path)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
