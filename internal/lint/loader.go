// Package lint is sovlint's engine: a pure-stdlib (go/parser, go/ast,
// go/types, go/token — no golang.org/x/tools) analyzer driver plus the
// repo-specific analyzers that police the determinism, hot-path allocation,
// and concurrency invariants PRs 1–2 promised. The paper's latency and
// energy models (Eq. 1–2) assume a control loop whose compute time is
// reproducible; these invariants are what make Tcomp accounting auditable,
// so violations are rejected at review time instead of caught by a flaky
// reproduction run.
//
// The engine loads every package in the module with its own module-aware
// loader (stdlib dependencies are type-checked from GOROOT source via
// go/importer's "source" compiler), then runs the analyzer × package matrix
// serially. Findings are reported in a deterministic order — the linter
// obeys the same contract it enforces.
package lint

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

// Package is one type-checked package: the parsed files plus the go/types
// artifacts every analyzer needs.
type Package struct {
	// ImportPath is the module-relative import path ("sov/internal/nn").
	ImportPath string
	// Dir is the absolute directory the files were read from.
	Dir string
	// Fset is the loader's shared file set (positions for every package).
	Fset *token.FileSet
	// Files holds the parsed non-test files, sorted by file name.
	Files []*ast.File
	// Types and Info are the go/types results.
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks the packages of a single module without
// shelling out to the go command. Stdlib imports are resolved from GOROOT
// source; module-internal imports are resolved by walking the module tree.
type Loader struct {
	// ModRoot is the absolute path of the directory containing go.mod.
	ModRoot string
	// ModPath is the module path declared in go.mod.
	ModPath string

	fset *token.FileSet

	mu   sync.Mutex
	pkgs map[string]*Package // by import path
	// loading guards against import cycles (impossible in valid Go, but a
	// clear error beats a stack overflow on a broken tree).
	loading map[string]bool
}

// The stdlib is type-checked from GOROOT source exactly once per process
// and shared by every Loader. A source-importer owns an internal package
// cache keyed by import path, so sharing one instance (and the FileSet its
// positions live in) means the second and every later Loader — each golden
// fixture constructs its own — resolves `time`, `sync`, `fmt` & co. from
// cache instead of re-parsing and re-checking tens of thousands of stdlib
// lines. BenchmarkLintRepo pins the win. The importer is not safe for
// concurrent use, so stdMu serializes cross-loader access.
var (
	sharedFset = token.NewFileSet()
	stdMu      sync.Mutex
	stdOnce    sync.Once
	stdImp     types.ImporterFrom
)

func stdImport(path string) (*types.Package, error) {
	stdOnce.Do(func() {
		stdImp = importer.ForCompiler(sharedFset, "source", nil).(types.ImporterFrom)
	})
	stdMu.Lock()
	defer stdMu.Unlock()
	return stdImp.Import(path)
}

// NewLoader returns a loader for the module rooted at modRoot (the
// directory containing go.mod). All loaders share one FileSet and one
// GOROOT source importer, so the stdlib is type-checked once per process.
func NewLoader(modRoot string) (*Loader, error) {
	modRoot, err := filepath.Abs(modRoot)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(modRoot, "go.mod"))
	if err != nil {
		return nil, err
	}
	return &Loader{
		ModRoot: modRoot,
		ModPath: modPath,
		fset:    sharedFset,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
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
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
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
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// LoadAll discovers every package directory under the module root
// (skipping testdata, vendor, hidden and underscore directories) and
// type-checks each. The result is sorted by import path.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
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
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return l.LoadDirs(dirs)
}

// LoadDirs type-checks the packages rooted at the given directories (each
// must live under the module root). The result is sorted by import path.
func (l *Loader) LoadDirs(dirs []string) ([]*Package, error) {
	var out []*Package
	seen := make(map[string]bool)
	for _, dir := range dirs {
		abs, err := filepath.Abs(dir)
		if err != nil {
			return nil, err
		}
		ip, err := l.importPathFor(abs)
		if err != nil {
			return nil, err
		}
		if seen[ip] {
			continue
		}
		seen[ip] = true
		pkg, err := l.load(ip, abs)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out, nil
}

func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.ModRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, l.ModRoot)
	}
	if rel == "." {
		return l.ModPath, nil
	}
	return l.ModPath + "/" + filepath.ToSlash(rel), nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// load parses and type-checks one package, memoized by import path.
// Loading is serialized: the stdlib source importer is not safe for
// concurrent use.
func (l *Loader) load(importPath, dir string) (*Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.loadLocked(importPath, dir)
}

func (l *Loader) loadLocked(importPath, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
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
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
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
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			return l.importLocked(path)
		}),
	}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	pkg := &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       l.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// importLocked resolves one import during type checking: module-internal
// paths recurse into the loader, everything else goes to the GOROOT source
// importer.
func (l *Loader) importLocked(path string) (*types.Package, error) {
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
		dir := filepath.Join(l.ModRoot, filepath.FromSlash(rel))
		pkg, err := l.loadLocked(path, dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("lint: no Go files in %s", dir)
		}
		return pkg.Types, nil
	}
	return stdImport(path)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
