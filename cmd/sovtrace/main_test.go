package main

import (
	"strings"
	"testing"
)

// TestSummarizeTellsTheKind: the input's first non-blank byte or line picks
// the summary, and a file with nothing in it is an archive with no dumps.
func TestSummarizeTellsTheKind(t *testing.T) {
	for _, c := range []struct{ name, in, first string }{
		{"span file", "[\n" + `{"name":"plan","ph":"X","ts":0,"dur":1000,"pid":1,"tid":1,"args":{"cycle":0}}` + "\n]\n", "spans: "},
		{"span file after blank lines", "\n \n[]", "spans: 0 virtual-time events over 0 cycles"},
		{"archive", `{"seq":1,"trigger":"collision","t_ms":5,"records":[]}` + "\n", "flight-recorder dumps: 1"},
		{"archive after a blank line", "\n" + `{"trigger":"reactive-engagement","t_ms":9}` + "\n", "flight-recorder dumps: 1"},
		{"empty file", "", "no flight-recorder dumps"},
		{"blank file", " \n\n", "no flight-recorder dumps"},
		{"trace", `{"cycle":0,"t_ms":0,"x":1,"y":2,"tcomp_ms":120}` + "\n", "cycles: 1 (0 blocked)"},
		{"a trigger key after the first line", "not json\n" + `{"trigger":"collision"}` + "\n", "cycles: 1 (0 blocked)"},
	} {
		out, err := summarize([]byte(c.in))
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if first, _, _ := strings.Cut(out, "\n"); !strings.HasPrefix(first, c.first) {
			t.Errorf("%s: first line %q, want it to start %q", c.name, first, c.first)
		}
	}
}
