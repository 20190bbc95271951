package models

import (
	"math"
	"testing"
)

func TestDeployedLoadSafeAcrossClimates(t *testing.T) {
	// Sec. III-B: PAD < 200 W is thermally unproblematic from −20 °C to
	// +40 °C with conventional cooling.
	load := PowerBudgetW() // 175 W
	for _, ambient := range []float64{-20, 0, 25, 40} {
		if !WithinLimits(load, ambient) {
			t.Fatalf("175 W unsafe at %v°C (temp %v)", ambient, SteadyTempC(load, ambient))
		}
	}
}

func TestThermalLimitExistsAtHighLoad(t *testing.T) {
	// A LiDAR-class stack plus extra servers at desert ambient would not
	// be "not a problem" anymore.
	if WithinLimits(500, 40) {
		t.Fatal("500 W at 40°C should exceed the ceiling (this is why PAD matters)")
	}
}

func TestSteadyTempLinear(t *testing.T) {
	if got := SteadyTempC(100, 20); math.Abs(got-45) > 1e-9 {
		t.Fatalf("steady temp = %v, want 45", got)
	}
}

func TestHeadroomAndMaxLoad(t *testing.T) {
	if max := MaxLoadW(40); math.Abs(max-180) > 1e-9 {
		t.Fatalf("max load at 40°C = %v, want 180", max)
	}
	if h := HeadroomW(175, 40); math.Abs(h-5) > 1e-9 {
		t.Fatalf("headroom = %v, want 5", h)
	}
	if HeadroomW(300, 40) >= 0 {
		t.Fatal("over-ceiling load should have negative headroom")
	}
}
