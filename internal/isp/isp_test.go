package isp

import (
	"testing"
	"time"

	"sov/internal/sim"
	"sov/internal/stats"
)

func TestDeliverPositiveAndDecomposed(t *testing.T) {
	rng := sim.NewRNG(1)
	tr := Deliver(rng)
	if len(tr.Delays) != len(stages) {
		t.Fatalf("delays = %d, want %d", len(tr.Delays), len(stages))
	}
	var sum time.Duration
	for i, d := range tr.Delays {
		if d < 0 {
			t.Fatalf("stage %d negative delay %v", i, d)
		}
		sum += d
	}
	if sum != tr.Total {
		t.Fatalf("total %v != sum %v", tr.Total, sum)
	}
}

func TestPipelineMeanNearCalibration(t *testing.T) {
	rng := sim.NewRNG(2)
	s := stats.NewSample()
	for i := 0; i < 20000; i++ {
		s.Observe(Deliver(rng).Total.Seconds() * 1000)
	}
	mean := s.Mean()
	// Pipeline ≈ 64-69 ms; with 20 ms exposure+readout upstream this puts
	// sensing at ≈ 84-89 ms.
	if mean < 60 || mean > 75 {
		t.Fatalf("mean pipeline latency = %.1f ms, want ~64-69", mean)
	}
	// Long tail exists: p99 well above mean.
	if s.Quantile(0.99) < mean*1.3 {
		t.Fatalf("p99 = %.1f ms not a long tail over mean %.1f", s.Quantile(0.99), mean)
	}
}

func TestISPStageVariesByAboutTenMs(t *testing.T) {
	// The paper: "ISP processing latency may vary by about 10 ms".
	var ispStage Stage
	found := false
	for _, s := range stages {
		if s.Name == "isp" {
			ispStage = s
			found = true
		}
	}
	if !found {
		t.Fatal("no isp stage")
	}
	rng := sim.NewRNG(3)
	s := stats.NewSample()
	for i := 0; i < 10000; i++ {
		s.Observe(ispStage.StageDelay(rng).Seconds() * 1000)
	}
	spread := s.Quantile(0.99) - s.Quantile(0.01)
	if spread < 5 || spread > 40 {
		t.Fatalf("ISP spread = %.1f ms, want ~10-30", spread)
	}
}

func TestInterfaceDelaySmallAndStable(t *testing.T) {
	// Timestamping at the sensor interface sees only ~1 ms, nearly
	// constant — the premise of near-sensor synchronization.
	rng := sim.NewRNG(4)
	s := stats.NewSample()
	for i := 0; i < 5000; i++ {
		s.Observe(InterfaceDelay(rng).Seconds() * 1000)
	}
	if s.Mean() > 2 {
		t.Fatalf("interface mean = %.2f ms, want ~1", s.Mean())
	}
	if s.Std() > 0.5 {
		t.Fatalf("interface std = %.2f ms, want tiny", s.Std())
	}
}

func TestApplicationVariationMuchLargerThanInterface(t *testing.T) {
	rng := sim.NewRNG(5)
	iface := stats.NewSample()
	app := stats.NewSample()
	for i := 0; i < 10000; i++ {
		iface.Observe(InterfaceDelay(rng).Seconds() * 1000)
		app.Observe(Deliver(rng).Total.Seconds() * 1000)
	}
	if app.Std() < 10*iface.Std() {
		t.Fatalf("app-layer variation (%.2f) should dwarf interface variation (%.2f)",
			app.Std(), iface.Std())
	}
	// Tail reaches toward ~100 ms as the paper reports at the app layer.
	if app.Max() < 90 {
		t.Fatalf("app-layer max = %.1f ms, want a ~100 ms tail", app.Max())
	}
}

func TestMeanTotalAnalytic(t *testing.T) {
	rng := sim.NewRNG(6)
	var sum float64
	n := 30000
	for i := 0; i < n; i++ {
		sum += Deliver(rng).Total.Seconds()
	}
	empirical := sum / float64(n)
	// Analytic mean traversal: base sums plus tail expectations.
	var mean time.Duration
	for _, s := range stages {
		mean += s.Base + time.Duration(s.TailProb*float64(s.TailScale))
	}
	analytic := mean.Seconds()
	if empirical < analytic*0.9 || empirical > analytic*1.15 {
		t.Fatalf("empirical mean %.4f vs analytic %.4f", empirical, analytic)
	}
}
