package lint

import (
	"encoding/json"
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
	{"poolescape", []*Analyzer{PoolEscape}},
	{"detflow", []*Analyzer{DetFlow}},
	{"gohygiene", []*Analyzer{GoHygiene}},
	{"suppress", []*Analyzer{DetNow}},
}

func loadFixture(t *testing.T, name string) (*Loader, *Package) {
	t.Helper()
	modRoot, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(modRoot)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", name), "fixture/"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	if pkg == nil {
		t.Fatalf("fixture %s has no Go files", name)
	}
	return loader, pkg
}

func fixtureFindings(t *testing.T, name string, analyzers []*Analyzer) []string {
	t.Helper()
	_, pkg := loadFixture(t, name)
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
// and requires byte-identical output — the linter obeys the determinism
// contract it enforces.
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

// TestFormatJSON pins the machine-readable output: valid JSON, stable
// field order, findings in driver order, and byte-identical bytes from two
// runs (the same contract as the text form).
func TestFormatJSON(t *testing.T) {
	_, pkg := loadFixture(t, "detflow")
	render := func() []byte {
		findings := Run([]*Package{pkg}, []*Analyzer{DetFlow})
		if len(findings) == 0 {
			t.Fatal("detflow fixture produced no findings")
		}
		b, err := FormatJSON(findings, "")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	first, second := render(), render()
	if string(first) != string(second) {
		t.Errorf("JSON output differs between two runs\n--- 1 ---\n%s\n--- 2 ---\n%s", first, second)
	}

	var arr []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(first, &arr); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	for _, f := range arr {
		if f.File == "" || f.Line == 0 || f.Analyzer != "detflow" || f.Message == "" {
			t.Errorf("incomplete finding object: %+v", f)
		}
	}
	if empty, err := FormatJSON(nil, ""); err != nil || strings.TrimSpace(string(empty)) != "[]" {
		t.Errorf("empty findings must render as []: %q, %v", empty, err)
	}
}
