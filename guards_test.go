package sov

import (
	"go/types"
	"os/exec"
	"regexp"
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
//
// A third rule asks the compiler: the helpers two kernels' speed rests on
// stay under the inliner's budget (go build -gcflags=-m must report them
// inlinable) — requant.apply and satInt8 in the int8 GEMM write-back, sad8
// in the SWAR stereo sweep (DESIGN.md §10).
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
	found = append(found, inlinerViolations(t)...)
	sort.Strings(found)
	if len(found) > 0 {
		t.Errorf("%d structural guard violations:\n%s", len(found), strings.Join(found, "\n"))
	}
}

// mustInline lists, per package, the functions the hot kernels call per
// output element and rely on being inlined.
var mustInline = map[string][]string{
	"./internal/nn":     {"requant.apply", "satInt8"},
	"./internal/vision": {"sad8"},
}

// inlinerViolations builds the mustInline packages with -gcflags=-m and
// returns one line per listed function the compiler did not report
// inlinable.
func inlinerViolations(t *testing.T) []string {
	t.Helper()
	var pkgs []string
	for p := range mustInline {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	out, err := exec.Command("go", append([]string{"build", "-gcflags=-m"}, pkgs...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	var found []string
	for _, p := range pkgs {
		for _, fn := range mustInline[p] {
			re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(strings.TrimPrefix(p, "./")) + `/[^:]+:\d+:\d+: can inline ` + regexp.QuoteMeta(fn) + `$`)
			if !re.Match(out) {
				found = append(found, p+": "+fn+" is not inlinable: a kernel calls it per output element")
			}
		}
	}
	return found
}
