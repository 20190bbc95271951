package models

import (
	"math"
	"strings"
	"testing"
)

func TestCameraVehicleCostMatchesTableII(t *testing.T) {
	m := DefaultCameraVehicleCost()
	// Cameras+IMU 1000, radar 3000, sonar 1600, GPS 1000 → 6600 total.
	if got := m.SensorTotalUSD(); math.Abs(got-6600) > 1e-9 {
		t.Fatalf("sensor total = %v, want 6600", got)
	}
	if m.RetailPriceUSD != 70000 {
		t.Fatalf("retail = %v", m.RetailPriceUSD)
	}
}

func TestLiDARVehicleCostMatchesTableII(t *testing.T) {
	m := DefaultLiDARVehicleCost()
	// Long-range 80k + 4×4k short-range = 96k sensors.
	if got := m.SensorTotalUSD(); math.Abs(got-96000) > 1e-9 {
		t.Fatalf("sensor total = %v, want 96000", got)
	}
	if m.RetailPriceUSD < 300000 {
		t.Fatalf("retail = %v, want >= 300000", m.RetailPriceUSD)
	}
}

func TestLiDARSensorsCostAtLeastTenXCamera(t *testing.T) {
	cam := DefaultCameraVehicleCost().SensorTotalUSD()
	lidar := DefaultLiDARVehicleCost().SensorTotalUSD()
	if lidar/cam < 10 {
		t.Fatalf("LiDAR/camera sensor ratio = %v, want >= 10", lidar/cam)
	}
}

func TestCostRender(t *testing.T) {
	out := DefaultCameraVehicleCost().Render()
	for _, want := range []string{"Radar", "GPS", "70000", "Sensor subtotal"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTCODollarPerTrip(t *testing.T) {
	tco := DefaultTCO()
	// The tourist site charges $1/trip; break-even should be near that.
	perTrip := tco.CostPerTripUSD()
	if perTrip < 0.5 || perTrip > 2.0 {
		t.Fatalf("cost per trip = %v, want O($1)", perTrip)
	}
}

func TestTCOAnnual(t *testing.T) {
	tco := TCO{VehicleUSD: 50000, ServiceLifeYears: 5, AnnualServiceUSD: 1000,
		AnnualCloudUSD: 500, AnnualEnergyUSD: 500, TripsPerDay: 10, OperatingDaysYear: 100}
	if got := tco.AnnualUSD(); got != 12000 {
		t.Fatalf("annual = %v", got)
	}
	if got := tco.CostPerTripUSD(); got != 12 {
		t.Fatalf("per trip = %v", got)
	}
}

func TestTCOZeroTrips(t *testing.T) {
	tco := DefaultTCO()
	tco.TripsPerDay = 0
	if tco.CostPerTripUSD() != 0 {
		t.Fatal("zero trips should return 0, not NaN/Inf")
	}
}
