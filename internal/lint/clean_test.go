package lint

import (
	"strings"
	"testing"
)

// TestRepoIsLintClean is the meta-test: the repository must satisfy every
// invariant sovlint enforces. A failure here reads exactly like the CI
// step — file:line:col: [analyzer] message — so the fix is the same
// whether it is caught locally or at review time.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	modRoot, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(modRoot)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; the module walk is broken", len(pkgs))
	}
	if findings := Run(pkgs, Analyzers()); len(findings) > 0 {
		lines := Format(findings, modRoot)
		t.Errorf("repository violates its own invariants (%d findings):\n%s",
			len(findings), strings.Join(lines, "\n"))
	}
}
