package experiments

import (
	"strings"
	"testing"
	"time"

	"sov/internal/cachesim"
	"sov/internal/core"
)

func TestAnalyticSections(t *testing.T) {
	cases := []struct {
		name string
		out  string
		want []string
	}{
		{"fig2", Fig2LatencyChain(), []string{"Tmech", "braking distance"}},
		{"fig3a", Fig3aRequirement(), []string{"164", "740", "floor"}},
		{"fig3b", Fig3bDrivingTime(), []string{"LiDAR", "server idle"}},
		{"table1", Table1Power(), []string{"175.0", "Radar", "Sonar"}},
		{"table2", Table2Cost(), []string{"70000", "LiDAR", "per trip"}},
		{"fig6", Fig6Platforms(), []string{"844.2", "FPGA", "TX2"}},
		{"fig8", Fig8Mappings(), []string{"GPU/FPGA", "speedup"}},
		{"fig9", Fig9RPR(), []string{"feature-extract", "MB/s", "CPU-driven"}},
	}
	for _, c := range cases {
		for _, w := range c.want {
			if !strings.Contains(c.out, w) {
				t.Errorf("%s missing %q:\n%s", c.name, w, c.out)
			}
		}
	}
}

func TestFig4Sections(t *testing.T) {
	a := Fig4aReuse(1500)
	if !strings.Contains(a, "frame 0") || !strings.Contains(a, "frame 1") {
		t.Fatalf("fig4a:\n%s", a)
	}
	b := Fig4bTraffic(2500)
	for _, k := range []string{"localization", "segmentation", "recognition", "reconstruction"} {
		if !strings.Contains(b, k) {
			t.Fatalf("fig4b missing %s:\n%s", k, b)
		}
	}
}

func TestFig10Section(t *testing.T) {
	out, rep := Fig10Characterization(core.DefaultConfig(), 2, 30*time.Second)
	if !strings.Contains(out, "computing latency") {
		t.Fatalf("fig10:\n%s", out)
	}
	if rep.Cycles < 250 {
		t.Fatalf("cycles = %d", rep.Cycles)
	}
}

func TestSyncSections(t *testing.T) {
	a := Fig11aDepthSync()
	if !strings.Contains(a, "offset(ms)") {
		t.Fatalf("fig11a:\n%s", a)
	}
	c := Fig12SyncArchitecture()
	if !strings.Contains(c, "hardware sync") || !strings.Contains(c, "1443") {
		t.Fatalf("fig12:\n%s", c)
	}
}

func TestStudies(t *testing.T) {
	if testing.Short() {
		t.Skip("long studies")
	}
	r := ReactivePathStudy(core.DefaultConfig())
	if !strings.Contains(r, "appears(m)") {
		t.Fatalf("reactive:\n%s", r)
	}
	f := FusionStudy()
	if !strings.Contains(f, "GPS-VIO") {
		t.Fatalf("fusion:\n%s", f)
	}
}

func TestExtensionsSection(t *testing.T) {
	out := Extensions()
	for _, w := range []string{"CAN schedule", "8-camera", "mobile-SoC", "thermal", "hourly upload"} {
		if !strings.Contains(out, w) {
			t.Fatalf("extensions missing %q:\n%s", w, out)
		}
	}
}

func TestStencilVsKDTreeTraffic(t *testing.T) {
	// Sec. III-D: vision's regular stencils reuse on-chip; LiDAR's
	// kd-tree kernels do not. The stencil reference must sit near the
	// compulsory minimum while the point-cloud kernels are 10-100x above.
	out := Fig4bTraffic(3000)
	if !strings.Contains(out, "vision-stencil") {
		t.Fatalf("missing stencil row:\n%s", out)
	}
	// Direct check of the stencil's ratio.
	c := cachesim.New(fig4bCache)
	StencilSweep(c, 200, 45, 3)
	if r := c.Stats().TrafficRatio(); r > 2.0 {
		t.Fatalf("stencil traffic ratio = %.2f, want ~1 (regular reuse)", r)
	}
}

func TestSeriesCSV(t *testing.T) {
	out := SeriesCSV()
	lines := strings.Split(strings.TrimSpace(out), "\n")
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
