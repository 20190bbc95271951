package sov

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestExperimentsBudget: EXPERIMENTS.md is the paper-vs-measured record plus
// one short verdict per change. A change's own runs go to testdata/audit/,
// where every file a verdict names must exist, and no section of
// EXPERIMENTS.md is a parent-vs-change run log. DESIGN.md may not grow past
// its cap; ROADMAP item 15 rewrites it to 600 lines.
func TestExperimentsBudget(t *testing.T) {
	const maxLines, maxDesignLines = 400, 1202
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(design), "\n"); n > maxDesignLines {
		t.Errorf("DESIGN.md is %d lines, over its %d-line cap: say it in fewer lines, or move history to CHANGES.md", n, maxDesignLines)
	}
	b, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(b)
	if n := strings.Count(text, "\n"); n > maxLines {
		t.Errorf("EXPERIMENTS.md is %d lines, over its %d-line budget: move run logs to testdata/audit/ and leave a verdict", n, maxLines)
	}
	for i, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "#") && strings.Contains(strings.ToLower(line), "parent vs change") {
			t.Errorf("EXPERIMENTS.md:%d: %q is a run log; it belongs in testdata/audit/", i+1, line)
		}
	}
	for _, m := range regexp.MustCompile("`([a-z0-9_]+\\.(?:md|txt))`").FindAllStringSubmatch(text, -1) {
		if _, err := os.Stat(filepath.Join("testdata", "audit", m[1])); err != nil {
			t.Errorf("EXPERIMENTS.md names %s, which testdata/audit/ lacks", m[1])
		}
	}
}

// TestDesignCitationsResolve: every DESIGN.md section that Go source, a
// README, ROADMAP.md, scripts/ or the CI workflow cites ("DESIGN.md §N",
// "DESIGN §N", and any ", §M" after either) is a "## N." heading there.
// CHANGES.md and testdata/ are history and fixtures, and are not read.
func TestDesignCitationsResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	heading := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^## ([0-9]+)\.`).FindAllStringSubmatch(string(design), -1) {
		heading[m[1]] = true
	}
	cite := regexp.MustCompile(`DESIGN(?:\.md)? §[0-9]+(?:, §[0-9]+)*`)
	num := regexp.MustCompile(`[0-9]+`)
	cited := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (d.Name() == "testdata" || d.Name() == ".git" || d.Name() == ".claude"):
			return fs.SkipDir
		case d.IsDir():
			return nil
		}
		read := strings.HasSuffix(path, ".go") || d.Name() == "README.md" || path == "ROADMAP.md" ||
			filepath.Dir(path) == "scripts" || path == filepath.Join(".github", "workflows", "ci.yml")
		if !read {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		text := string(b)
		for _, loc := range cite.FindAllStringIndex(text, -1) {
			for _, n := range num.FindAllString(text[loc[0]:loc[1]], -1) {
				cited++
				if !heading[n] {
					t.Errorf("%s:%d cites DESIGN.md §%s, which has no \"## %s.\" heading", path, strings.Count(text[:loc[0]], "\n")+1, n, n)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cited == 0 {
		t.Fatal("found no DESIGN.md citations; the scan is broken")
	}
}
