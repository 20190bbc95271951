package lint

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from current analyzer output")

// goldenCases maps each fixture package to the analyzers it seeds
// violations for. The suppress fixture runs detnow to prove directives
// filter findings (and that malformed directives are findings themselves).
var goldenCases = []struct {
	name      string
	analyzers []*Analyzer
}{
	{"detnow", []*Analyzer{DetNow}},
	{"detrand", []*Analyzer{DetRand}},
	{"maprange", []*Analyzer{MapRange}},
	{"hotalloc", []*Analyzer{HotAlloc}},
	{"hotcalls", []*Analyzer{HotAlloc}},
	{"suppress", []*Analyzer{DetNow}},
}

func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	modRoot, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(modRoot)
	if err != nil {
		t.Fatal(err)
	}
	// A fixture directory is type-checked as the synthetic package
	// "fixture/<name>"; it does not need to live under the module root.
	dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.load("fixture/"+name, dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	if pkg == nil {
		t.Fatalf("fixture %s has no Go files", name)
	}
	return pkg
}

func fixtureFindings(t *testing.T, name string, analyzers []*Analyzer) []string {
	t.Helper()
	pkg := loadFixture(t, name)
	findings := Run([]*Package{pkg}, analyzers)
	srcRoot, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	return Format(findings, srcRoot)
}

func TestGolden(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			lines := fixtureFindings(t, c.name, c.analyzers)
			if len(lines) == 0 {
				t.Fatalf("fixture %s produced no findings; the analyzer is blind to its seeded violations", c.name)
			}
			got := strings.Join(lines, "\n") + "\n"
			goldenPath := filepath.Join("testdata", "golden", c.name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden file (run `go test ./internal/lint -run TestGolden -update`): %v", err)
			}
			if got != string(want) {
				t.Errorf("findings differ from %s\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
			}
		})
	}
}

// TestSuppression pins the directive semantics beyond the golden file: the
// two well-formed directives in the suppress fixture must remove exactly
// their findings, the two malformed directives must surface as [sovlint]
// findings, and the stale directive (nothing to suppress for an analyzer
// that ran) must surface too.
func TestSuppression(t *testing.T) {
	lines := fixtureFindings(t, "suppress", []*Analyzer{DetNow})
	var meta, detnow, stale int
	for _, l := range lines {
		switch {
		case strings.Contains(l, "[sovlint]"):
			meta++
			if strings.Contains(l, "suppresses nothing here") {
				stale++
			}
		case strings.Contains(l, "[detnow]"):
			detnow++
		}
		if strings.Contains(l, "suppressed:") {
			t.Errorf("finding on a suppressed line leaked through: %s", l)
		}
	}
	if meta != 3 {
		t.Errorf("[sovlint] directive findings = %d, want 3 (2 malformed + 1 stale)\n%s", meta, strings.Join(lines, "\n"))
	}
	if stale != 1 {
		t.Errorf("stale directive findings = %d, want 1\n%s", stale, strings.Join(lines, "\n"))
	}
	if detnow != 3 {
		t.Errorf("unsuppressed detnow findings = %d, want 3\n%s", detnow, strings.Join(lines, "\n"))
	}
}

// TestFindingsDeterministic runs the full matrix over every fixture twice
// (hotcalls exercises the call graph and the summary fact) and requires
// byte-identical output — the linter obeys the determinism contract it
// enforces.
func TestFindingsDeterministic(t *testing.T) {
	collect := func() string {
		var all []string
		for _, c := range goldenCases {
			all = append(all, fixtureFindings(t, c.name, Analyzers())...)
		}
		return strings.Join(all, "\n")
	}
	first, second := collect(), collect()
	if first != second {
		t.Errorf("findings differ between two runs\n--- 1 ---\n%s\n--- 2 ---\n%s", first, second)
	}
}
