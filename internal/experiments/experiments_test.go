package experiments

import (
	"os"
	"strings"
	"testing"
	"time"

	"sov/internal/cachesim"
	"sov/internal/core"
)

// small are the parameters the tests run sections at: seed 1, a 5 s
// cruise, 500-point scans.
func small(s Section) string {
	return s.Run(core.DefaultConfig(), 1, 5*time.Second, 500)
}

// checkSections runs each named section at small parameters and checks
// that it prints every wanted string.
func checkSections(t *testing.T, want map[string][]string) {
	t.Helper()
	for name, ws := range want {
		s, ok := Lookup(name)
		if !ok {
			t.Fatalf("no section %s", name)
		}
		out := small(s)
		for _, w := range ws {
			if !strings.Contains(out, w) {
				t.Errorf("%s missing %q:\n%s", name, w, out)
			}
		}
	}
}

// TestSections: the full pass is its rows run one at a time and
// concatenated, so sovbench -only NAME prints exactly what the full pass
// prints for NAME; Lookup ignores case and knows only the table's names.
func TestSections(t *testing.T) {
	if s, ok := Lookup("FIG10"); !ok || s.Name != "fig10" {
		t.Errorf("Lookup(FIG10) = %q, %v; want fig10", s.Name, ok)
	}
	if _, ok := Lookup("nonesuch"); ok {
		t.Error("Lookup(nonesuch) found a section")
	}
	if testing.Short() {
		t.Skip("runs the full pass twice")
	}
	var full strings.Builder
	for _, s := range Sections {
		if !s.Solo {
			full.WriteString(small(s) + "\n")
		}
	}
	if got := All(core.DefaultConfig(), 1, 5*time.Second, 500); got != full.String() {
		t.Errorf("All differs from its rows run one at a time:\n%s\nwant:\n%s", got, full.String())
	}
}

func TestAnalyticSections(t *testing.T) {
	checkSections(t, map[string][]string{
		"fig2":   {"Tmech", "braking distance"},
		"fig3a":  {"164", "740", "floor"},
		"fig3b":  {"LiDAR", "server idle"},
		"table1": {"175.0", "Radar", "Sonar"},
		"table2": {"70000", "LiDAR", "per trip"},
		"table3": {"BenchmarkKCFTrackerStep", "BenchmarkPlannerComparisonMPC"},
		"fig6":   {"844.2", "FPGA", "TX2"},
		"fig8":   {"GPU/FPGA", "speedup"},
		"fig9":   {"feature-extract", "MB/s", "CPU-driven"},
	})
}

func TestFig4Sections(t *testing.T) {
	checkSections(t, map[string][]string{
		"fig4a": {"frame 0", "frame 1"},
		"fig4b": {"localization", "segmentation", "recognition", "reconstruction", "vision-stencil"},
	})
}

func TestFig10Section(t *testing.T) {
	checkSections(t, map[string][]string{"fig10": {"computing latency", "over 50 cycles"}})
}

func TestSyncSections(t *testing.T) {
	checkSections(t, map[string][]string{
		"fig11a": {"offset(ms)"},
		"fig12":  {"hardware sync", "1443"},
	})
}

func TestStudies(t *testing.T) {
	if testing.Short() {
		t.Skip("long studies")
	}
	checkSections(t, map[string][]string{
		"reactive": {"appears(m)"},
		"fusion":   {"GPS-VIO"},
	})
}

// TestSchedBenchSnapshot: the sched-json section regenerates the committed
// BENCH_sched.json byte for byte, so any change to a scheduler mechanism
// that moves a virtual-time result fails here, not only in the CI gate.
func TestSchedBenchSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the scheduler experiment")
	}
	want, err := os.ReadFile("../../BENCH_sched.json")
	if err != nil {
		t.Fatal(err)
	}
	s, _ := Lookup("sched-json")
	if got := s.Run(core.DefaultConfig(), 1, 0, 0); got != string(want) {
		t.Errorf("sched-json differs from BENCH_sched.json:\n%s\nwant:\n%s", got, want)
	}
}

func TestExtensionsSection(t *testing.T) {
	checkSections(t, map[string][]string{
		"extensions": {"CAN schedule", "8-camera", "mobile-SoC", "thermal", "hourly upload"},
	})
}

// TestFig4bStencilNeverEmpty: a scan too small for one stencil height of
// image rows still sweeps one row, so the vision-stencil reference reads
// real traffic rather than an empty image's zeros.
func TestFig4bStencilNeverEmpty(t *testing.T) {
	s, _ := Lookup("fig4b")
	for _, points := range []int{1, 100, 466} {
		out := s.Run(core.DefaultConfig(), 1, 5*time.Second, points)
		for _, l := range strings.Split(out, "\n") {
			if f := strings.Fields(l); len(f) > 3 && f[0] == "vision-stencil" && f[3] == "0.0x" {
				t.Errorf("%d points: %s", points, l)
			}
		}
	}
}

func TestStencilVsKDTreeTraffic(t *testing.T) {
	// Sec. III-D: vision's regular stencils reuse on-chip; LiDAR's
	// kd-tree kernels do not. The stencil reference must sit near the
	// compulsory minimum.
	c := cachesim.New(fig4bCache)
	stencilSweep(c, 200, 45, 3)
	if r := c.Stats().TrafficRatio(); r > 2.0 {
		t.Fatalf("stencil traffic ratio = %.2f, want ~1 (regular reuse)", r)
	}
}

func TestSeriesCSV(t *testing.T) {
	s, _ := Lookup("csv")
	lines := strings.Split(strings.TrimSpace(small(s)), "\n")
	if lines[0] != "figure,x,y" {
		t.Fatalf("header = %q", lines[0])
	}
	counts := map[string]int{}
	for _, l := range lines[1:] {
		fields := strings.Split(l, ",")
		if len(fields) != 3 {
			t.Fatalf("malformed row %q", l)
		}
		counts[fields[0]]++
	}
	for _, fig := range []string{"fig3a_budget_ms", "fig3b_reduced_h", "fig11a_depth_err_m"} {
		if counts[fig] < 10 {
			t.Fatalf("series %s has %d rows", fig, counts[fig])
		}
	}
}
