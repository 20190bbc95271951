package lint

import (
	"go/ast"
	"strings"
	"testing"
)

// TestGoHygieneRealPackages runs the concurrency-hygiene analyzer against
// the two production packages that own the concurrency — internal/parallel
// (the worker pool every fan-out runs on) and internal/fleet (worker-sharded
// simulation) — rather than only the toy fixture. The test asserts both
// directions: the packages are clean, and they actually contain spawned
// goroutines, so a regression in the loader or the analyzer cannot pass
// vacuously.
func TestGoHygieneRealPackages(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks module packages; skipped in -short")
	}
	modRoot, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(modRoot)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadDirs([]string{
		modRoot + "/internal/parallel",
		modRoot + "/internal/fleet",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(pkgs))
	}

	goStmts := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if _, ok := n.(*ast.GoStmt); ok {
					goStmts++
				}
				return true
			})
		}
	}
	if goStmts == 0 {
		t.Fatal("no go statements found in internal/parallel or internal/fleet; the hygiene check is vacuous")
	}

	if findings := Run(pkgs, []*Analyzer{GoHygiene}); len(findings) > 0 {
		lines := Format(findings, modRoot)
		t.Errorf("gohygiene findings in production packages (%d):\n%s",
			len(findings), strings.Join(lines, "\n"))
	}
}
