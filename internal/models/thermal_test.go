package models

import (
	"math"
	"testing"
)

func TestDeployedLoadSafeAcrossClimates(t *testing.T) {
	// Sec. III-B: PAD < 200 W is thermally unproblematic from −20 °C to
	// +40 °C with conventional cooling.
	m := DefaultThermalModel()
	load := DefaultPowerBudget().TotalW() // 175 W
	for _, ambient := range []float64{-20, 0, 25, 40} {
		if !m.WithinLimits(load, ambient) {
			t.Fatalf("175 W unsafe at %v°C (temp %v)", ambient, m.SteadyTempC(load, ambient))
		}
	}
}

func TestThermalLimitExistsAtHighLoad(t *testing.T) {
	m := DefaultThermalModel()
	// A LiDAR-class stack plus extra servers at desert ambient would not
	// be "not a problem" anymore.
	if m.WithinLimits(500, 40) {
		t.Fatal("500 W at 40°C should exceed the ceiling (this is why PAD matters)")
	}
}

func TestSteadyTempLinear(t *testing.T) {
	m := DefaultThermalModel()
	if got := m.SteadyTempC(100, 20); math.Abs(got-45) > 1e-9 {
		t.Fatalf("steady temp = %v, want 45", got)
	}
}

func TestHeadroomAndMaxLoad(t *testing.T) {
	m := DefaultThermalModel()
	max := m.MaxLoadW(40)
	if math.Abs(max-180) > 1e-9 {
		t.Fatalf("max load at 40°C = %v, want 180", max)
	}
	if h := m.HeadroomW(175, 40); math.Abs(h-5) > 1e-9 {
		t.Fatalf("headroom = %v, want 5", h)
	}
	if m.HeadroomW(300, 40) >= 0 {
		t.Fatal("over-ceiling load should have negative headroom")
	}
}

func TestThermalDegenerateModel(t *testing.T) {
	z := ThermalModel{}
	if z.MaxLoadW(20) != 0 || z.HeadroomW(10, 20) != 0 {
		t.Fatal("degenerate model should return zeros, not Inf")
	}
}
