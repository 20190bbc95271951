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
// EXPERIMENTS.md is a parent-vs-change run log. DESIGN.md is the
// architecture as it stands, under a line cap and naming no PR: how a
// mechanism came to be is CHANGES.md's business.
func TestExperimentsBudget(t *testing.T) {
	const maxLines, maxDesignLines = 400, 600
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(design), "\n"); n > maxDesignLines {
		t.Errorf("DESIGN.md is %d lines, over its %d-line cap: say it in fewer lines, or move history to CHANGES.md", n, maxDesignLines)
	}
	for _, m := range regexp.MustCompile(`\bPRs? ?#?[0-9]+`).FindAllString(string(design), -1) {
		t.Errorf("DESIGN.md names %q: history belongs in CHANGES.md", m)
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

// TestChangesBudget: CHANGES.md is one line per entry: a PR's entry, or a
// FOUND/MENDED note, which is kept as written. A PR entry says what changed,
// one measured line, the tests, CI steps and gates it changed, and links its
// audit file, in at most 1 500 bytes; the evidence itself lives in
// testdata/audit/. The file stays under 90 KB.
func TestChangesBudget(t *testing.T) {
	const maxBytes, maxEntry = 90_000, 1500
	b, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > maxBytes {
		t.Errorf("CHANGES.md is %d bytes, over its %d-byte budget", len(b), maxBytes)
	}
	entry := regexp.MustCompile(`^- (?:\*\*)?PR [0-9]+`)
	note := regexp.MustCompile(`^- (?:FOUND|MENDED): `)
	entries := 0
	for i, line := range strings.Split(strings.TrimSuffix(string(b), "\n"), "\n") {
		switch {
		case note.MatchString(line):
		case entry.MatchString(line):
			entries++
			if len(line) > maxEntry {
				t.Errorf("CHANGES.md:%d: a %d-byte entry, over %d: keep what changed, one measured line, the changed checks and the audit link", i+1, len(line), maxEntry)
			}
		default:
			t.Errorf("CHANGES.md:%d: %.60q is neither a PR entry nor a FOUND/MENDED line", i+1, line)
		}
	}
	if entries == 0 {
		t.Fatal("found no PR entry in CHANGES.md; the scan is broken")
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

// TestDesignNamesTheTree: every internal/X and cmd/X that DESIGN.md names
// is a package directory of the tree, and every such directory is named, so
// the inventory neither describes a deleted package nor misses a new one.
func TestDesignNamesTheTree(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	for _, m := range regexp.MustCompile(`\b(?:internal|cmd)/[a-z0-9_]+`).FindAllString(string(design), -1) {
		named[m] = true
	}
	for _, root := range []string{"internal", "cmd"} {
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if dir := root + "/" + e.Name(); e.IsDir() {
				if !named[dir] {
					t.Errorf("DESIGN.md does not name %s", dir)
				}
				delete(named, dir)
			}
		}
	}
	for dir := range named {
		t.Errorf("DESIGN.md names %s, which does not exist", dir)
	}
}
