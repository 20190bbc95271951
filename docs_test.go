package sov

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestExperimentsBudget: EXPERIMENTS.md is the paper-vs-measured record plus
// one short verdict per change. A change's own runs go to testdata/audit/,
// where every file a verdict names must exist, and no section of
// EXPERIMENTS.md is a parent-vs-change run log.
func TestExperimentsBudget(t *testing.T) {
	const maxLines = 400
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
