package sov

import (
	"go/types"
	"sort"
	"strings"
	"testing"

	"sov/internal/lint"
)

// TestStructuralGuards holds two design rules on the type-checked module,
// where a comment or a string cannot trip them and a renamed import cannot
// slip past:
//   - serial by construction: internal/core and internal/telemetry do not
//     import internal/parallel; neither has a fan-out that earns its keep
//     (testdata/audit/fanout_audit.md);
//   - one owner per buffer: no non-test code under internal/ or cmd/ uses
//     sync.Pool; a scratch buffer belongs to its kernel instance or to a
//     caller-held …Scratch (DESIGN.md §10).
func TestStructuralGuards(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	mod := loader.ModPath
	serial := map[string]bool{mod + "/internal/core": true, mod + "/internal/telemetry": true}
	var found []string
	for _, p := range pkgs {
		if serial[p.ImportPath] {
			for _, imp := range p.Types.Imports() {
				if imp.Path() == mod+"/internal/parallel" {
					found = append(found, p.ImportPath+" imports "+imp.Path()+": the control loop and the telemetry store are serial by construction")
				}
			}
		}
		rel := strings.TrimPrefix(p.ImportPath, mod+"/")
		if !strings.HasPrefix(rel, "internal/") && !strings.HasPrefix(rel, "cmd/") {
			continue
		}
		for id, obj := range p.Info.Uses {
			if tn, ok := obj.(*types.TypeName); ok && tn.Pkg() != nil && tn.Pkg().Path() == "sync" && tn.Name() == "Pool" {
				found = append(found, p.Fset.Position(id.Pos()).String()+": names sync.Pool: a scratch buffer has one owner")
			}
		}
	}
	sort.Strings(found)
	if len(found) > 0 {
		t.Errorf("%d structural guard violations:\n%s", len(found), strings.Join(found, "\n"))
	}
}
